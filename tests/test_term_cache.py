"""The serving workers' term cache: coverage masks reused across queries.

Every worker keeps one LRU of term masks per hosted fragment
(:data:`repro.dist.process_cluster.TERM_CACHE_ENTRIES`).  These tests pin
what the cache must never change — answers, against the oracle and
against cold uncached runtimes — and what it must do: drop exactly the
sources a seed-list patch names, keep distance reads (explain, top-k) on
fresh searches, stay within its capacity and cost a mask plus a small
constant per entry.
"""

from __future__ import annotations

import gc
import math
import tracemalloc
from collections import OrderedDict
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.core.coverage import CoverageCache, FragmentRuntime, term_members
from repro.core.executor import execute_fragment_task, execute_fragment_task_explained
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource
from repro.core.runs import merge_runs
from repro.core.topk import TopKQuery, execute_topk_task
from repro.dist.process_cluster import (
    TERM_CACHE_ENTRIES,
    apply_epoch,
    build_worker_runtimes,
    epoch_message,
)
from repro.ha import HACluster
from repro.live import AddKeyword, EpochManager, RemoveKeyword, SetEdgeWeight
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster
from repro.shm import SharedSegmentStore
from repro.workloads import load_dataset

from helpers import make_random_network

NUM_FRAGMENTS = 4
EXPRESSIONS = (
    "NEAR(w0, 1.5) AND NEAR(w1, 2)",
    "NEAR(w2, 2) OR NEAR(w0, 1)",
    "NEAR(w3, 2) NOT NEAR(w1, 0.5)",
    "HAS(w4) OR NEAR(w5, 1.5)",
    "WITHIN(2 OF #3) AND HAS(w1)",  # an object: RKQ locations carry DL node entries
    "NEAR(w1, 2)",
)


@cache
def deployment():
    """``(network, partition, fragments, indexes)``; epoch writes copy, never mutate."""
    net = make_random_network(
        seed=1404, num_junctions=40, num_objects=20, vocabulary=6, extra_edge_prob=0.05
    )
    partition = BfsPartitioner(seed=4).partition(net, NUM_FRAGMENTS)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=2.0))
    return net, partition, fragments, indexes


def new_manager() -> EpochManager:
    net, partition, fragments, indexes = deployment()
    return EpochManager(
        network=net, partition=partition, fragments=list(fragments), indexes=list(indexes)
    )


def applied(manager: EpochManager, ops) -> dict:
    """Apply one batch; return its delta (``{fragment_id: pair}`` plus ``seed_keys``)."""
    deltas = []
    manager.subscribe(lambda _state, delta: deltas.append(delta))
    manager.apply(ops)
    return deltas[-1]


def oracle(manager: EpochManager) -> CentralizedEvaluator:
    return CentralizedEvaluator(manager.state.network, strict_keywords=False)


def cold_runtimes(manager: EpochManager) -> dict[int, FragmentRuntime]:
    """Uncached runtimes compiled fresh from the current epoch."""
    state = manager.state
    return {
        fragment.fragment_id: FragmentRuntime(fragment, index)
        for fragment, index in zip(state.fragments, state.indexes)
    }


class Worker:
    """One worker's runtimes built and swapped by the worker's own functions."""

    def __init__(self, use_shm: bool) -> None:
        _net, _partition, fragments, indexes = deployment()
        pairs = list(zip(fragments, indexes))
        self.store = SharedSegmentStore() if use_shm else None
        if use_shm:
            data = [self.store.publish(f, i, epoch=0) for f, i in pairs]
        else:
            data = pairs
        self.registry, self.runtimes = build_worker_runtimes("shm" if use_shm else "pickle", data)
        self.hosted = [fragment.fragment_id for fragment in fragments]

    def by_fragment(self) -> dict:
        return {runtime.fragment.fragment_id: runtime for runtime in self.runtimes}

    def apply(self, epoch: int, delta) -> None:
        kind, data = epoch_message(
            self.hosted, list(delta.values()), epoch, self.store, delta.seed_keys
        )
        self.runtimes, _swapped = apply_epoch(kind, data, self.registry, self.runtimes)

    def close(self) -> None:
        if self.registry is not None:
            self.registry.release_all()
        if self.store is not None:
            self.store.unlink_all()


# ----------------------------------------------------------------------
# Invalidation scope on real clusters
# ----------------------------------------------------------------------
def partial_patch(patched: str) -> AddKeyword:
    """An add of ``patched`` whose seed patch touches some fragments, not all."""
    net = deployment()[0]
    for node in sorted(net.object_nodes()):
        if patched in net.keywords(node):
            continue
        op = AddKeyword(node, patched)
        if 0 < len(applied(new_manager(), [op])) < NUM_FRAGMENTS:
            return op
    raise AssertionError("no object gives a partial patch")


def start(kind: str, use_shm: bool):
    """``(cluster, replicas per fragment)``; HA routes round-robin, so two runs
    of one query visit both replicas of every fragment."""
    _net, _partition, fragments, indexes = deployment()
    if kind == "pipelined":
        return PipelinedCluster.start(fragments, indexes, num_machines=2, use_shm=use_shm), 1
    cluster = HACluster.start(
        fragments, indexes, num_machines=3, replication_factor=2, routing="rr", use_shm=use_shm
    )
    return cluster, 2


@pytest.mark.parametrize("use_shm", [False, True])
@pytest.mark.parametrize("kind", ["pipelined", "ha"])
def test_a_keyword_patch_drops_exactly_the_patched_keys(kind, use_shm):
    patched, untouched = "w0", "w2"
    op = partial_patch(patched)
    manager = new_manager()
    queries = [parse_query(f"NEAR({keyword}, 1.5)") for keyword in (patched, untouched)]
    cluster, replicas = start(kind, use_shm)
    with cluster:
        manager.bind_cluster(cluster)

        def lookups(query) -> dict[str, int]:
            """Run ``query`` once per replica; the cache counters it moved."""
            before = cluster.coverage_cache_stats()
            for _ in range(replicas):
                assert cluster.execute(query).result_nodes == oracle(manager).results(query)
            after = cluster.coverage_cache_stats()
            return {name: after[name] - before[name] for name in after}

        for query in queries:
            lookups(query)  # warm every replica
        delta = applied(manager, [op])
        assert delta.seed_keys is not None  # keyword-only: seed patches, no republish
        assert untouched not in set().union(*delta.seed_keys.values())
        patched_in = {fid for fid, keys in delta.seed_keys.items() if patched in keys}
        assert 0 < len(patched_in) < NUM_FRAGMENTS
        # Shared-memory workers drop the patched keys; pickled workers
        # refresh the changed fragments and so drop their whole cache.
        dropped = len(patched_in) if use_shm else len(delta)
        for query, misses in zip(queries, (dropped, 0 if use_shm else dropped)):
            moved = lookups(query)
            assert moved == {
                "hits": replicas * (NUM_FRAGMENTS - misses),
                "misses": replicas * misses,
            }
        assert moved["hits"] > 0  # the untouched query still hits


def test_explain_on_a_warm_cluster_matches_a_cold_runtime():
    manager = new_manager()
    cold = cold_runtimes(manager)
    cluster, _replicas = start("pipelined", True)
    with cluster:
        for expression in EXPRESSIONS:
            cluster.execute(parse_query(expression))
        assert cluster.coverage_cache_stats()["misses"] > 0
        for expression in EXPRESSIONS:
            query = parse_query(expression)
            explained = cluster.execute(query, explain=True)
            expected = {
                fid: execute_fragment_task_explained(runtime, query)[1]
                for fid, runtime in cold.items()
            }
            assert explained.partials == expected
        assert cluster.coverage_cache_stats()["hits"] > 0


# ----------------------------------------------------------------------
# Cached and uncached workers under interleaved updates
# ----------------------------------------------------------------------
STEPS = st.one_of(
    st.just(("query",)),
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 999), st.integers(0, 5)),
    st.tuples(st.just("weight"), st.integers(0, 999), st.sampled_from([0.5, 1.25, 3.0])),
)


def as_op(step, network):
    kind, pick, value = step
    if kind == "weight":
        edges = sorted(network.edges())
        u, v, _w = edges[pick % len(edges)]
        return SetEdgeWeight(u, v, value)
    keyword = f"w{value}"
    if kind == "add":
        objects = sorted(network.object_nodes())
        return AddKeyword(objects[pick % len(objects)], keyword)
    carriers = sorted(network.keyword_nodes(keyword))
    return RemoveKeyword(carriers[pick % len(carriers)], keyword) if carriers else None


def assert_worker_answers(worker: Worker, manager: EpochManager) -> None:
    """Every expression, per fragment and merged, against cold runtimes and the oracle."""
    warm, cold = worker.by_fragment(), cold_runtimes(manager)
    for expression in EXPRESSIONS:
        query = parse_query(expression)
        runs = [execute_fragment_task(warm[fid], query).run for fid in sorted(cold)]
        assert runs == [execute_fragment_task(cold[fid], query).run for fid in sorted(cold)]
        assert set(merge_runs(runs)) == oracle(manager).results(query)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(use_shm=st.booleans(), steps=st.lists(STEPS, min_size=1, max_size=12))
def test_cached_workers_answer_like_uncached_ones(use_shm, steps):
    manager = new_manager()
    worker = Worker(use_shm)
    try:
        assert_worker_answers(worker, manager)  # warms every term
        for step in steps:
            if step[0] == "query":
                assert_worker_answers(worker, manager)
                continue
            op = as_op(step, manager.state.network)
            if op is None:
                continue
            delta = applied(manager, [op])
            if delta:
                worker.apply(manager.epoch, delta)
        assert_worker_answers(worker, manager)
        assert sum(rt.coverage_cache.hits for rt in worker.runtimes) > 0
    finally:
        worker.close()


@pytest.mark.parametrize("use_shm", [False, True])
def test_distance_reads_on_a_warm_worker_match_a_cold_runtime(use_shm):
    worker = Worker(use_shm)
    try:
        warm, cold = worker.by_fragment(), cold_runtimes(new_manager())
        for _ in range(2):
            for expression in EXPRESSIONS:
                for runtime in warm.values():
                    execute_fragment_task(runtime, parse_query(expression))
        assert all(runtime.coverage_cache.hits for runtime in warm.values())
        for fid, runtime in warm.items():
            for expression in EXPRESSIONS:
                query = parse_query(expression)
                got, got_partial = execute_fragment_task_explained(runtime, query)
                want, want_partial = execute_fragment_task_explained(cold[fid], query)
                assert got_partial == want_partial  # runs and exact distance columns
                assert got.coverage_sizes == want.coverage_sizes
            for keyword in ("w0", "w1", "w2"):
                topk = TopKQuery(KeywordSource(keyword), k=4, radius=1.5)
                assert (
                    execute_topk_task(runtime, topk).candidates
                    == execute_topk_task(cold[fid], topk).candidates
                )
    finally:
        worker.close()


# ----------------------------------------------------------------------
# The LRU itself
# ----------------------------------------------------------------------
CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "discard"]),
        st.booleans(),  # keyword or node source: "5" and #5 must not collide
        st.integers(0, 6),
        st.sampled_from([0.0, 1.0, 2.5]),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(0, 5), ops=CACHE_OPS)
def test_the_lru_never_exceeds_its_capacity(capacity, ops):
    cache = CoverageCache(capacity)
    model: OrderedDict = OrderedDict()
    for kind, by_keyword, key, radius in ops:
        source = KeywordSource(str(key)) if by_keyword else NodeSource(key)
        term = CoverageTerm(source, radius)
        if kind == "get":
            expected = model.get(term)
            if expected is not None:
                model.move_to_end(term)
            assert cache.get(term) == expected
        elif kind == "put":
            cache.put(term, key)
            if capacity:
                model[term] = key
                model.move_to_end(term)
                while len(model) > capacity:
                    model.popitem(last=False)
        else:
            cache.discard([source])
            for stale in [t for t in model if t.source == source]:
                del model[stale]
        assert len(cache) == len(model) <= capacity


# ----------------------------------------------------------------------
# Memory pin: masks, never distance lists
# ----------------------------------------------------------------------
def test_a_full_cache_costs_a_mask_plus_128_bytes_per_entry():
    net = load_dataset("bri_tiny").network
    fragments = build_fragments(net, BfsPartitioner(seed=0).partition(net, 4))
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(lambda_factor=10.0))
    runtime = FragmentRuntime(fragments[0], indexes[0], cache_capacity=TERM_CACHE_ENTRIES)
    kernel = runtime.kernel
    n, max_radius = kernel.num_nodes, runtime.max_radius
    # The widest coverages this fragment has: the entries a distance-list
    # cache would pay 9n bytes for.
    specs = sorted(
        (
            (keyword, max_radius * step / 5)
            for keyword in net.all_keywords()
            for step in (1, 2, 3, 4, 5)
        ),
        key=lambda spec: -kernel.settle(CoverageTerm(KeywordSource(spec[0]), spec[1]))[2],
    )[:TERM_CACHE_ENTRIES]
    kernel.settle(CoverageTerm(KeywordSource(specs[0][0]), max_radius))  # size the buckets
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = sum(
            term_members(runtime, CoverageTerm(KeywordSource(keyword), radius)).bit_count()
            for keyword, radius in specs
        )
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(runtime.coverage_cache) == TERM_CACHE_ENTRIES
    assert held > TERM_CACHE_ENTRIES * n // 8  # the masks are far from empty
    assert used <= TERM_CACHE_ENTRIES * (math.ceil(n / 8) + 128)
    term_members(runtime, CoverageTerm(KeywordSource(specs[0][0]), max_radius / 8))
    assert len(runtime.coverage_cache) == TERM_CACHE_ENTRIES  # one in, one out
