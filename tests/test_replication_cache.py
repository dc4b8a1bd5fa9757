"""Tests for fragment replication/failure handling and the coverage cache."""

from __future__ import annotations

import math

import pytest

from repro import DisksEngine, EngineConfig, sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.coverage import FragmentRuntime, local_coverage
from repro.core.queries import CoverageTerm, KeywordSource
from repro.dist import ReplicatedCluster
from repro.exceptions import ClusterError
from repro.partition import BfsPartitioner

from helpers import make_random_network


@pytest.fixture(scope="module")
def replicated_case():
    net = make_random_network(seed=800, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=8).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


class TestReplicatedCluster:
    def test_placement_validation(self, replicated_case):
        _net, fragments, indexes = replicated_case
        with pytest.raises(ClusterError):
            ReplicatedCluster.from_fragments(
                fragments, indexes, num_machines=2, replication_factor=3
            )
        with pytest.raises(ClusterError):
            ReplicatedCluster.from_fragments(
                fragments, indexes[:-1], num_machines=2
            )

    def test_every_fragment_has_r_replicas(self, replicated_case):
        _net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=4, replication_factor=2
        )
        for fragment in fragments:
            assert len(cluster.replicas_of(fragment.fragment_id)) == 2

    def test_healthy_answers_match_oracle(self, replicated_case):
        net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=4, replication_factor=2
        )
        query = sgkq(["w0", "w1"], 4.0)
        response = cluster.execute(query)
        assert response.result_nodes == CentralizedEvaluator(net).results(query)
        assert set(response.chosen_machines) == {0, 1, 2, 3}

    def test_survives_single_failure(self, replicated_case):
        net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=4, replication_factor=2
        )
        query = sgkq(["w0", "w2"], 3.0)
        expected = CentralizedEvaluator(net).results(query)
        for victim in range(4):
            cluster.fail_machine(victim)
            response = cluster.execute(query)
            assert response.result_nodes == expected
            assert victim not in response.chosen_machines.values()
            cluster.restore_machine(victim)

    def test_too_many_failures_raises(self, replicated_case):
        _net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=4, replication_factor=2
        )
        cluster.fail_machine(0)
        cluster.fail_machine(1)
        with pytest.raises(ClusterError):
            cluster.execute(sgkq(["w0"], 1.0))

    def test_all_failed_raises(self, replicated_case):
        _net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=2, replication_factor=2
        )
        cluster.fail_machine(0)
        cluster.fail_machine(1)
        with pytest.raises(ClusterError):
            cluster.execute(sgkq(["w0"], 1.0))

    def test_unknown_machine_rejected(self, replicated_case):
        _net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=2, replication_factor=1
        )
        with pytest.raises(ClusterError):
            cluster.fail_machine(9)
        with pytest.raises(ClusterError):
            cluster.restore_machine(9)

    def test_traffic_stays_coordinator_only(self, replicated_case):
        _net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=4, replication_factor=2
        )
        cluster.fail_machine(2)
        cluster.execute(sgkq(["w0"], 2.0))
        assert cluster.ledger.worker_to_worker_bytes() == 0

    def test_placement_balances_load(self, replicated_case):
        _net, fragments, indexes = replicated_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=2, replication_factor=2
        )
        response = cluster.execute(sgkq(["w0"], 2.0))
        counts: dict[int, int] = {}
        for machine in response.chosen_machines.values():
            counts[machine] = counts.get(machine, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1


class TestCoverageCache:
    def _runtime(self, capacity: int):
        net = make_random_network(seed=810, num_junctions=20, num_objects=10, vocabulary=4)
        partition = BfsPartitioner(seed=1).partition(net, 2)
        fragments = build_fragments(net, partition)
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
        return net, FragmentRuntime(fragments[0], indexes[0], cache_capacity=capacity)

    def test_disabled_by_default(self):
        net, runtime = self._runtime(0)
        term = CoverageTerm(KeywordSource("w0"), 3.0)
        local_coverage(runtime, term)
        local_coverage(runtime, term)
        assert runtime.coverage_cache.stats == (0, 0)

    def test_hit_returns_same_result(self):
        net, runtime = self._runtime(8)
        term = CoverageTerm(KeywordSource("w0"), 3.0)
        first = local_coverage(runtime, term)
        second = local_coverage(runtime, term)
        assert first == second
        hits, misses = runtime.coverage_cache.stats
        assert hits == 1 and misses == 1

    def test_distinct_radiuses_are_distinct_entries(self):
        _net, runtime = self._runtime(8)
        a = local_coverage(runtime, CoverageTerm(KeywordSource("w0"), 2.0))
        b = local_coverage(runtime, CoverageTerm(KeywordSource("w0"), 4.0))
        assert a <= b
        hits, _misses = runtime.coverage_cache.stats
        assert hits == 0

    def test_lru_eviction(self):
        _net, runtime = self._runtime(2)
        t1 = CoverageTerm(KeywordSource("w0"), 1.0)
        t2 = CoverageTerm(KeywordSource("w1"), 1.0)
        t3 = CoverageTerm(KeywordSource("w2"), 1.0)
        local_coverage(runtime, t1)
        local_coverage(runtime, t2)
        local_coverage(runtime, t3)  # evicts t1
        local_coverage(runtime, t1)  # miss again
        hits, misses = runtime.coverage_cache.stats
        assert hits == 0 and misses == 4

    def test_invalidate(self):
        _net, runtime = self._runtime(4)
        term = CoverageTerm(KeywordSource("w0"), 2.0)
        local_coverage(runtime, term)
        runtime.coverage_cache.clear()
        local_coverage(runtime, term)
        hits, misses = runtime.coverage_cache.stats
        assert hits == 0 and misses == 2

    def test_cluster_aggregates_cache_stats(self):
        net = make_random_network(seed=812, num_junctions=24, num_objects=12, vocabulary=4)
        from repro.dist.cluster import SimulatedCluster

        partition = BfsPartitioner(seed=3).partition(net, 3)
        fragments = build_fragments(net, partition)
        indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
        cluster = SimulatedCluster.from_fragments(fragments, indexes, cache_capacity=8)
        query = sgkq(["w0"], 3.0)
        cluster.execute(query)
        cluster.execute(query)
        # Every term evaluation consults the cache once: the first run
        # misses on every fragment, the repeat hits on every fragment.
        assert cluster.coverage_cache_stats() == {"hits": len(fragments), "misses": len(fragments)}

    def test_engine_with_cache_matches_oracle(self):
        net = make_random_network(seed=811, num_junctions=25, num_objects=12, vocabulary=4)
        cached_engine = DisksEngine.build(
            net,
            EngineConfig(
                num_fragments=3,
                lambda_factor=None,
                max_radius=math.inf,
                coverage_cache_capacity=32,
                partitioner=BfsPartitioner(seed=2),
            ),
        )
        oracle = CentralizedEvaluator(net)
        query = sgkq(["w0", "w1"], 4.0)
        for _ in range(3):  # repeated queries hit the cache
            assert cached_engine.results(query) == oracle.results(query)
