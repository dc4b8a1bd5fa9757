"""Real process parallelism for index construction.

Construction is fragment-parallel (§4.1), so each fragment's NPD-index
is built in its own OS process — how a single multi-core host realises
the paper's per-machine parallelism.  Everything shipped to workers is
picklable by design (networks, fragments and configs are plain data).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.core.builder import BuildStats, NPDBuildConfig, build_npd_index
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.graph.road_network import RoadNetwork
from repro.search.dense import DenseSearch

__all__ = ["parallel_build_indexes"]


# The road network a pool worker builds against, stashed once per
# worker process by the pool initializer.  Shipping it per *job* would
# pickle the whole network N-fragments times over the pool; with the
# initializer it crosses to each worker exactly once and every job
# carries only its (fragment, config).  The reverse row view every
# portal search runs on is derived from it there, once per worker rather
# than once per fragment job.
_WORKER_NETWORK: RoadNetwork | None = None
_WORKER_SEARCH: DenseSearch | None = None


def _pool_init(network: RoadNetwork) -> None:
    global _WORKER_NETWORK, _WORKER_SEARCH
    _WORKER_NETWORK = network
    _WORKER_SEARCH = DenseSearch(network, reverse=True)


def _build_one(
    args: tuple[Fragment, NPDBuildConfig],
) -> tuple[NPDIndex, BuildStats]:
    fragment, config = args
    network = _WORKER_NETWORK
    if network is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker pool was started without _pool_init")
    return build_npd_index(network, fragment, config, _WORKER_SEARCH)


def parallel_build_indexes(
    network: RoadNetwork,
    fragments: Sequence[Fragment],
    config: NPDBuildConfig | None = None,
    *,
    processes: int | None = None,
) -> tuple[list[NPDIndex], list[BuildStats]]:
    """Build every fragment's NPD-index in a process pool.

    Mirrors the paper's §4.1 observation that construction is naturally
    fragment-parallel ("one machine only takes charge of one fragment").
    The network is shipped once per worker via the pool initializer, not
    once per fragment job.
    """
    config = config or NPDBuildConfig()
    jobs = [(fragment, config) for fragment in fragments]
    with ProcessPoolExecutor(
        max_workers=processes, initializer=_pool_init, initargs=(network,)
    ) as pool:
        outcomes = list(pool.map(_build_one, jobs))
    indexes = [index for index, _stats in outcomes]
    stats = [s for _index, s in outcomes]
    return indexes, stats
