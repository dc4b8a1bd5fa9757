"""Tests for the distributed runtime: messages, ledger, cluster, parallel."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    NPDBuildConfig,
    build_all_indexes,
    build_fragments,
    rkq,
    sgkq,
)
from repro.core.coverage import FragmentRuntime
from repro.baselines import CentralizedEvaluator
from repro.dist import (
    Coordinator,
    NetworkModel,
    QueryTaskMessage,
    SimulatedCluster,
    TaskResultMessage,
    TrafficLedger,
    WorkerMachine,
)
from repro.dist.network import COORDINATOR_ID
from repro.dist.parallel import parallel_build_indexes, parallel_execute_query
from repro.exceptions import ClusterError, CommunicationViolationError
from repro.partition import BfsPartitioner

from helpers import make_random_network


@pytest.fixture(scope="module")
def cluster_case():
    net = make_random_network(seed=200, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=2).partition(net, 3)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


class TestMessages:
    def test_task_message_size_scales_with_terms(self):
        small = QueryTaskMessage(COORDINATOR_ID, 0, sgkq(["a"], 1.0))
        large = QueryTaskMessage(COORDINATOR_ID, 0, sgkq(["a", "b", "c"], 1.0))
        assert large.estimated_bytes() > small.estimated_bytes()

    def test_task_message_counts_node_sources(self):
        msg = QueryTaskMessage(COORDINATOR_ID, 0, rkq(3, ["a"], 1.0))
        assert msg.estimated_bytes() > 24

    def test_result_message_size_scales_with_results(self):
        small = TaskResultMessage.from_nodes(1, 1, [1, 2], 0.1)
        large = TaskResultMessage.from_nodes(1, 1, range(50), 0.1)
        assert large.estimated_bytes() - small.estimated_bytes() == 48 * 8

    def test_result_message_wraps_nodes(self):
        msg = TaskResultMessage.from_nodes(2, 5, [9, 9, 3], 0.5)
        assert msg.result_nodes == frozenset({9, 3})
        assert msg.receiver == COORDINATOR_ID
        assert msg.fragment_id == 5


class TestNetworkModel:
    def test_transfer_time(self):
        model = NetworkModel(latency_seconds=0.001, bandwidth_bytes_per_second=1000.0)
        assert model.transfer_seconds(500) == pytest.approx(0.501)
        with pytest.raises(ValueError):
            model.transfer_seconds(-1)

    def test_default_models_100mb_switch(self):
        model = NetworkModel()
        assert model.bandwidth_bytes_per_second == pytest.approx(12_500_000.0)


class TestTrafficLedger:
    def test_coordinator_traffic_allowed(self):
        ledger = TrafficLedger()
        ledger.record(COORDINATOR_ID, 0, 100, "task")
        ledger.record(0, COORDINATOR_ID, 200, "result")
        assert ledger.total_bytes == 300
        assert ledger.bytes_by_kind() == {"task": 100, "result": 200}
        assert ledger.worker_to_worker_bytes() == 0

    def test_worker_to_worker_forbidden(self):
        ledger = TrafficLedger()
        with pytest.raises(CommunicationViolationError):
            ledger.record(0, 1, 10, "sneaky")


class TestCoordinatorAndCluster:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Coordinator(machines=[]).execute(sgkq(["a"], 1.0))

    def test_machine_without_fragments_rejected(self):
        machine = WorkerMachine(machine_id=0)
        with pytest.raises(ClusterError):
            machine.execute(sgkq(["a"], 1.0))

    def test_cluster_answers_match_oracle(self, cluster_case):
        net, fragments, indexes = cluster_case
        cluster = SimulatedCluster.from_fragments(fragments, indexes)
        oracle = CentralizedEvaluator(net)
        query = sgkq(["w0", "w1"], 4.0)
        response = cluster.execute(query)
        assert response.result_nodes == oracle.results(query)

    def test_response_accounting(self, cluster_case):
        _net, fragments, indexes = cluster_case
        cluster = SimulatedCluster.from_fragments(fragments, indexes)
        response = cluster.execute(sgkq(["w0"], 3.0))
        assert response.response_seconds >= max(response.machine_seconds.values())
        assert response.communication_seconds > 0
        assert response.total_message_bytes == cluster.ledger.total_bytes
        assert [r.fragment_id for r in response.task_results] == [0, 1, 2]

    def test_only_coordinator_traffic_ever_happens(self, cluster_case):
        """The Theorem-3 guarantee, enforced end to end."""
        _net, fragments, indexes = cluster_case
        cluster = SimulatedCluster.from_fragments(fragments, indexes)
        for radius in (1.0, 3.0):
            cluster.execute(sgkq(["w0", "w2"], radius))
        kinds = {t.kind for t in cluster.ledger.transfers}
        assert kinds == {"task", "result"}
        assert cluster.ledger.worker_to_worker_bytes() == 0
        for transfer in cluster.ledger.transfers:
            assert COORDINATOR_ID in (transfer.sender, transfer.receiver)

    def test_round_robin_machine_assignment(self, cluster_case):
        _net, fragments, indexes = cluster_case
        cluster = SimulatedCluster.from_fragments(fragments, indexes, num_machines=2)
        assert cluster.num_machines == 2
        hosted = [m.fragment_ids for m in cluster.coordinator.machines]
        assert hosted == [[0, 2], [1]]

    def test_machines_capped_at_fragments(self, cluster_case):
        _net, fragments, indexes = cluster_case
        cluster = SimulatedCluster.from_fragments(fragments, indexes, num_machines=10)
        assert cluster.num_machines == 3

    def test_mismatched_lengths_rejected(self, cluster_case):
        _net, fragments, indexes = cluster_case
        with pytest.raises(ClusterError):
            SimulatedCluster.from_fragments(fragments, indexes[:-1])


class TestProcessParallel:
    def test_parallel_build_matches_serial(self, cluster_case):
        net, fragments, serial_indexes = cluster_case
        parallel_indexes, stats = parallel_build_indexes(
            net, fragments, NPDBuildConfig(max_radius=math.inf), processes=2
        )
        assert len(stats) == len(fragments)
        for a, b in zip(serial_indexes, parallel_indexes):
            assert a.shortcuts == b.shortcuts
            assert a.keyword_entries == b.keyword_entries
            assert a.node_entries == b.node_entries

    def test_pool_worker_derives_the_row_view_once(self, cluster_case):
        """The initializer stashes the reverse view next to the network;
        every fragment job of that worker then searches on it."""
        from repro.dist import parallel

        net, fragments, serial_indexes = cluster_case
        parallel._pool_init(net)
        try:
            view = parallel._WORKER_SEARCH
            assert len(view.rows) == net.num_nodes
            config = NPDBuildConfig(max_radius=math.inf)
            built = [parallel._build_one((fragment, config))[0] for fragment in fragments]
            assert built == list(serial_indexes)
            assert parallel._WORKER_SEARCH is view
        finally:
            parallel._WORKER_NETWORK = parallel._WORKER_SEARCH = None

    def test_parallel_query_matches_oracle(self, cluster_case):
        net, fragments, indexes = cluster_case
        runtimes = [FragmentRuntime(f, i) for f, i in zip(fragments, indexes)]
        query = sgkq(["w0", "w1"], 4.0)
        answer, results = parallel_execute_query(runtimes, query, processes=2)
        assert answer == CentralizedEvaluator(net).results(query)
        assert len(results) == len(fragments)
