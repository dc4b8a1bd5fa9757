"""Unit tests for ReplicatedCluster bookkeeping.

``tests/test_replication_cache.py`` covers the end-to-end behaviour
(oracle parity, failure survival, load balance).  This file pins the
bookkeeping underneath: the chained-declustering layout itself,
fail/restore round-trips, placement reaction to restores, and the
ledger/latency accounting of one execution.
"""

from __future__ import annotations

import math

import pytest

from repro import sgkq
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.dist import ReplicatedCluster
from repro.dist.network import COORDINATOR_ID
from repro.exceptions import ClusterError
from repro.partition import BfsPartitioner

from helpers import make_random_network

NUM_MACHINES = 4
REPLICATION = 2


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=810, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=9).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


def make_cluster(built, *, replication: int = REPLICATION) -> ReplicatedCluster:
    _net, fragments, indexes = built
    return ReplicatedCluster.from_fragments(
        fragments,
        indexes,
        num_machines=NUM_MACHINES,
        replication_factor=replication,
    )


class TestLayout:
    def test_chained_declustering_placement_is_exact(self, built):
        """Fragment i lands on machines i%m, (i+1)%m, ... — no more, no less."""
        cluster = make_cluster(built)
        _net, fragments, _indexes = built
        for i in range(len(fragments)):
            expected = sorted((i + j) % NUM_MACHINES for j in range(REPLICATION))
            assert sorted(cluster.replicas_of(i)) == expected

    def test_replication_factor_one_is_the_paper_deployment(self, built):
        cluster = make_cluster(built, replication=1)
        _net, fragments, _indexes = built
        for i in range(len(fragments)):
            assert cluster.replicas_of(i) == [i % NUM_MACHINES]

    def test_replicas_of_unknown_fragment_is_empty(self, built):
        assert make_cluster(built).replicas_of(999) == []

    def test_every_machine_holds_its_share(self, built):
        """r copies of f fragments over m machines: f*r runtimes total."""
        cluster = make_cluster(built)
        _net, fragments, _indexes = built
        total = sum(len(handler.runtimes) for handler in cluster.handlers)
        assert total == len(fragments) * REPLICATION


class TestFailRestore:
    def test_restore_round_trip(self, built):
        cluster = make_cluster(built)
        assert cluster.failed_machines == frozenset()
        cluster.fail_machine(1)
        assert cluster.failed_machines == frozenset({1})
        cluster.restore_machine(1)
        assert cluster.failed_machines == frozenset()

    def test_fail_and_restore_are_idempotent(self, built):
        cluster = make_cluster(built)
        cluster.fail_machine(2)
        cluster.fail_machine(2)
        assert cluster.failed_machines == frozenset({2})
        cluster.restore_machine(2)
        cluster.restore_machine(2)  # restoring a healthy machine is a no-op
        assert cluster.failed_machines == frozenset()

    def test_unknown_machine_rejected_on_both_paths(self, built):
        cluster = make_cluster(built)
        with pytest.raises(ClusterError, match="no machine 99"):
            cluster.fail_machine(99)
        with pytest.raises(ClusterError, match="no machine 99"):
            cluster.restore_machine(99)

    def test_restore_returns_machine_to_the_placement_pool(self, built):
        net, _fragments, _indexes = built
        keyword = sorted(net.all_keywords())[0]
        query = sgkq([keyword], 4.0)
        cluster = make_cluster(built)
        cluster.fail_machine(0)
        healthy_before = cluster.execute(query).result_nodes
        assert 0 not in cluster.execute(query).chosen_machines.values()
        cluster.restore_machine(0)
        after = cluster.execute(query)
        assert 0 in after.chosen_machines.values()
        assert after.result_nodes == healthy_before

    def test_failing_all_machines_raises(self, built):
        cluster = make_cluster(built)
        for machine_id in range(NUM_MACHINES):
            cluster.fail_machine(machine_id)
        query = sgkq(sorted(built[0].all_keywords())[:1], 2.0)
        with pytest.raises(ClusterError, match="every machine has failed"):
            cluster.execute(query)


class TestAccounting:
    def test_ledger_records_two_messages_per_fragment(self, built):
        net, fragments, _indexes = built
        query = sgkq(sorted(net.all_keywords())[:2], 3.0)
        cluster = make_cluster(built)
        cluster.execute(query)
        assert len(cluster.ledger.transfers) == 2 * len(fragments)
        by_kind = cluster.ledger.bytes_by_kind()
        assert set(by_kind) == {"task", "result"}
        assert cluster.ledger.worker_to_worker_bytes() == 0
        # A second execution appends, never resets.
        cluster.execute(query)
        assert len(cluster.ledger.transfers) == 4 * len(fragments)

    def test_all_traffic_touches_the_coordinator(self, built):
        net, _fragments, _indexes = built
        cluster = make_cluster(built)
        cluster.execute(sgkq(sorted(net.all_keywords())[:1], 3.0))
        for transfer in cluster.ledger.transfers:
            assert COORDINATOR_ID in (transfer.sender, transfer.receiver)

    def test_response_seconds_is_makespan_plus_comm(self, built):
        net, _fragments, _indexes = built
        cluster = make_cluster(built)
        response = cluster.execute(sgkq(sorted(net.all_keywords())[:1], 3.0))
        assert response.machine_seconds
        # The makespan bound: at least the slowest machine's busy time.
        assert response.response_seconds >= max(response.machine_seconds.values())
        # machine_seconds only covers machines that actually served work.
        assert set(response.machine_seconds) == set(
            response.chosen_machines.values()
        )

    def test_chosen_machines_cover_every_fragment_once(self, built):
        net, fragments, _indexes = built
        cluster = make_cluster(built)
        response = cluster.execute(sgkq(sorted(net.all_keywords())[:1], 3.0))
        assert sorted(response.chosen_machines) == list(range(len(fragments)))
        for fragment_id, machine_id in response.chosen_machines.items():
            assert machine_id in cluster.replicas_of(fragment_id)
