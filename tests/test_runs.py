"""The coordinator's union of fragment runs, and where numpy may load.

:func:`merge_runs` has two sort paths on either side of
:data:`NUMPY_MERGE_MIN`; both must equal one ``sorted`` over all the
nodes.  numpy is imported only by the first wide union, so importing
the serving stack maps no numpy, and workers, which fork before any
union and never merge, never map it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from array import array
from itertools import chain
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.runs import EMPTY_RUN, NUMPY_MERGE_MIN, merge_runs

MAX_ID = 2**64 - 1
EDGE_IDS = (0, 1, 2**63, MAX_ID - 1, MAX_ID)


@st.composite
def disjoint_runs(draw) -> list[array]:
    """0-8 node-disjoint sorted runs, some empty, their total near the crossover."""
    count = draw(st.integers(0, 8))
    if count == 0:
        return []
    total = draw(
        st.one_of(
            st.integers(0, 3 * NUMPY_MERGE_MIN),
            st.sampled_from([NUMPY_MERGE_MIN - 1, NUMPY_MERGE_MIN, NUMPY_MERGE_MIN + 1]),
        )
    )
    # Bulk ids come from a drawn seed: drawing each one from hypothesis
    # would exceed its per-example entropy budget at these sizes.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ids = set(draw(st.lists(st.sampled_from(EDGE_IDS), unique=True, max_size=min(total, len(EDGE_IDS)))))
    while len(ids) < total:
        ids.add(rng.randrange(MAX_ID + 1))
    ordered = sorted(ids)
    if draw(st.booleans()):  # fragments interleave across the id space
        groups = [ordered[i::count] for i in range(count)]
    else:  # fragments hold contiguous id blocks, in no particular order
        cuts = sorted(rng.randrange(total + 1) for _ in range(count - 1))
        groups = [ordered[a:b] for a, b in zip([0, *cuts], [*cuts, total])]
    rng.shuffle(groups)
    return [array("Q", group) for group in groups]


@settings(max_examples=300, deadline=None)
@given(disjoint_runs())
def test_merge_equals_one_sort_on_both_sides_of_the_crossover(runs):
    before = [run.tobytes() for run in runs]
    merged = merge_runs(iter(runs))
    assert merged == array("Q", sorted(chain(*runs)))
    assert merged.typecode == "Q"
    assert [run.tobytes() for run in runs] == before  # inputs are never sorted in place
    non_empty = [run for run in runs if run]
    if not non_empty:
        assert merged is EMPTY_RUN
    elif len(non_empty) == 1:
        assert merged is non_empty[0]
    else:
        assert all(merged is not run for run in runs)
        merged.append(0)  # a fresh array: no numpy view left pinning its buffer


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_serving_imports_leave_numpy_unloaded():
    done = _run_python(
        """
        import sys
        import repro, repro.serve, repro.ha, repro.live, repro.dist.process_cluster
        print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_wide_union_loads_numpy_in_the_coordinator_only():
    done = _run_python(
        """
        import math, os, sys
        from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
        from repro.core.runs import NUMPY_MERGE_MIN
        from repro.partition import BfsPartitioner
        from repro.serve import PipelinedCluster
        from repro.workloads import load_dataset

        net = load_dataset("bri_tiny").network
        fragments = build_fragments(net, BfsPartitioner(seed=1).partition(net, 4))
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
        keyword = sorted(net.all_keywords())[0]
        with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
            assert "numpy" not in sys.modules
            narrow = cluster.execute(parse_query(f"NEAR({keyword}, 0)")).result_run
            assert 1 < len(narrow) < NUMPY_MERGE_MIN, len(narrow)
            assert "numpy" not in sys.modules
            wide = cluster.execute(parse_query(f"NEAR({keyword}, 1000000)")).result_run
            assert len(wide) >= NUMPY_MERGE_MIN and list(wide) == sorted(set(wide))
            assert "numpy" in sys.modules
            for process in cluster._transport.processes:
                maps = f"/proc/{process.pid}/maps"
                if os.path.exists(maps):
                    with open(maps) as handle:
                        assert "numpy" not in handle.read(), process.pid
        print("ok")
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
