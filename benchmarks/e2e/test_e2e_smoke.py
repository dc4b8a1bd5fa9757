"""Smoke and determinism tests for the end-to-end benchmark.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run with

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Each workload runs once with one 1-second slice and the traced pass
(about 20 s each, nearly all of it the cold ``bri_mini`` build).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "core.kernel.settled_nodes", "core.kernel.seeds", "serve.wire.answer_bytes", "shm.startup_bytes",
)


def _session_members(session: int) -> list[int]:
    """Pids of the processes, exiting ones included, in ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[3]) == session:
                found.append(int(entry))
    return found


def _run(workload: str, out: Path, seed: int = 11) -> dict:
    command = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--slices", "1", "--slice-seconds", "1", "--trace", "1", "--out", str(out),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = command.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        command.kill()
        command.wait()
        raise
    # Scanned the moment the command has ended.  multiprocessing's
    # resource tracker stays in the command's session and, unless the
    # command stops it and waits, ends a few milliseconds after it.
    assert _session_members(command.pid) == []
    assert command.returncode == 0, stderr[-2000:]
    lines = stdout.strip().splitlines()
    return {
        "rows": [line.split() for line in lines[:-1]],
        "result": json.loads(lines[-1]),
        "record": json.loads((out / f"report_{workload}.json").read_text())["workloads"][workload],
        "trace": json.loads((out / f"trace_{workload}.json").read_text()),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, dict]:
    out = tmp_path_factory.mktemp("e2e")
    return {name: _run(name, out) for name in WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(runs, workload):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    emitted = {row[1]: row[2] for row in runs[workload]["rows"] if row[0] == workload}
    for name, unit in units.items():
        assert emitted.get(name) == unit, name
        assert runs[workload]["record"]["end_to_end"][name]["value"] > 0, name


def test_layer_metric_names_match_the_spec(runs):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted: dict[str, str] = {}
    for run in runs.values():
        emitted.update({row[1]: row[2] for row in run["rows"] if row[1] in run["record"]["per_layer"]})
    assert emitted == units
    for workload, run in runs.items():
        # The driver's line carries every layer metric on every workload.
        assert set(run["result"]["metrics"]) == set(units), workload


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_answers_match_the_oracle_and_nothing_leaks(runs, workload):
    run = runs[workload]
    record = run["record"]
    assert run["result"]["correct"] and run["result"]["failed"] == 0
    assert record["per_layer"]["fail_share"] == 0
    assert record["oracle_compared"] == (32 + 128 if workload == "cache_churn" else 32)
    assert record["leaks"]["leaked_segments"] == []
    assert record["leaks"]["leaked_workers"] == 0
    assert record["leaks"]["thread_errors"] == []


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_trace_file_holds_complete_spans(runs, workload):
    events = runs[workload]["trace"]["traceEvents"]
    assert len(events) == runs[workload]["record"]["traced_pass"]["spans"] > 0
    for event in events:
        assert event["name"] and event["ts"] >= 0 and event["dur"] >= 0
        assert "parent" in event["args"] and "query" in event["args"]
    names = {event["name"] for event in events}
    assert {"core.kernel.distance_map", "core.executor.task", "serve.wire.query_decode"} <= names


def test_layers_are_reported_only_where_they_run(runs):
    for workload, run in runs.items():
        layer = run["record"]["per_layer"]
        assert ("ha.cluster.roundtrip_ms" in layer) == (workload == "ha_obs")
        assert ("obs.tail.retained_share" in layer) == (workload == "ha_obs")
        assert ("cache.store.hit_rate" in layer) == (workload == "cache_churn")
        assert ("serve.server.open_p95_ms" in layer) == (workload == "point_ndjson")
    churn = runs["cache_churn"]["record"]["per_layer"]
    assert churn["cache.store.hit_rate"] > 0.5
    assert churn["live.epochs.apply_ms"] > 0


def test_same_seed_same_inputs_and_exact_counts(runs, tmp_path):
    from repro.workloads.datasets import DATASET_PRESETS, build_dataset
    from workloads import DATASET, LAMBDA, WORKLOADS, expression_pool, read_order, update_plan

    network = build_dataset(DATASET_PRESETS[DATASET]).network
    max_radius = LAMBDA * network.average_edge_weight
    for workload in WORKLOADS.values():
        pools = [expression_pool(workload, network, max_radius, seed) for seed in (11, 11, 12)]
        orders = [read_order(workload, workload.pool_size, seed, 1) for seed in (11, 11, 12)]
        assert pools[0] == pools[1] and orders[0] == orders[1], workload.name
        assert len(pools[0]) == workload.pool_size
        # A new seed changes what is asked: the pool, or (for the cache
        # workload's fixed catalogue) who reads what when.
        assert (orders[0] != orders[2]) if workload.cache else (pools[0] != pools[2]), workload.name
    pool = expression_pool(WORKLOADS["cache_churn"], network, max_radius, 11)
    plans = [json.dumps(update_plan(network, pool, seed)) for seed in (11, 11, 12)]
    assert plans[0] == plans[1] and plans[0] != plans[2]

    again = _run("point_ndjson", tmp_path)["record"]["per_layer"]
    first = runs["point_ndjson"]["record"]["per_layer"]
    for name in EXACT_COUNTS:
        assert again[name] == first[name], name
