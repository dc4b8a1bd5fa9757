"""Tests for the distributed runtime: frames, ledger, cluster, the index builder."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import replace

import pytest

from repro.core import (
    DLNodePolicy,
    NPDBuildConfig,
    build_all_indexes,
    build_fragments,
    build_npd_index,
    rkq,
    sgkq,
)
from repro.core import builder
from repro.baselines import CentralizedEvaluator
from repro.dist import (
    NetworkModel,
    ReplicatedCluster,
    SimulatedCluster,
    TrafficLedger,
)
from repro.dist.network import COORDINATOR_ID
from repro.dist.process_cluster import query_frame
from repro.exceptions import ClusterError, CommunicationViolationError, IndexBuildError
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster
from repro.serve.wire import dumps_pipe_results, loads_pipe

from helpers import make_random_network, make_tied_grid


@pytest.fixture(scope="module")
def cluster_case():
    net = make_random_network(seed=200, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=2).partition(net, 3)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


class TestMessages:
    """The pipe frames whose real lengths the ledger records."""

    def test_task_message_size_scales_with_terms(self):
        small = query_frame(0, sgkq(["a"], 1.0))
        large = query_frame(0, sgkq(["a", "b", "c"], 1.0))
        assert len(large) > len(small)

    def test_task_message_counts_node_sources(self):
        assert len(query_frame(0, rkq(3, ["a"], 1.0))) > len(query_frame(0, sgkq(["a"], 1.0)))

    def test_result_message_size_scales_with_results(self):
        small = dumps_pipe_results(1, [(1, {1, 2}, 0.1)], 0.1, 0.0)
        large = dumps_pipe_results(1, [(1, set(range(50)), 0.1)], 0.1, 0.0)
        assert len(large) - len(small) == 48 * 8

    def test_result_message_wraps_nodes(self):
        kind, body, _sent_at = loads_pipe(dumps_pipe_results(2, [(5, {9, 3}, 0.5)], 0.5, 0.0))
        assert kind == "results"
        request_id, [(fragment_id, run, seconds)], _elapsed = body
        assert (request_id, fragment_id, list(run), seconds) == (2, 5, [3, 9], 0.5)


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
            SimulatedCluster.from_fragments([], [])

    def test_machine_without_fragments_rejected(self, cluster_case):
        _net, fragments, indexes = cluster_case
        with pytest.raises(ClusterError):
            SimulatedCluster.from_fragments(fragments, indexes, num_machines=0)

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
        hosted = [sorted(handler.hosted) for handler in cluster.handlers]
        assert hosted == [[0, 2], [1]]

    def test_machines_capped_at_fragments(self, cluster_case):
        _net, fragments, indexes = cluster_case
        cluster = SimulatedCluster.from_fragments(fragments, indexes, num_machines=10)
        assert cluster.num_machines == 3

    def test_mismatched_lengths_rejected(self, cluster_case):
        _net, fragments, indexes = cluster_case
        with pytest.raises(ClusterError):
            SimulatedCluster.from_fragments(fragments, indexes[:-1])


class TestServedFrames:
    """The in-process transport sends the serving tier's frames and prices them."""

    @pytest.mark.parametrize("num_machines", [3, 2])
    def test_ledger_bytes_equal_the_pipelined_frames(self, cluster_case, num_machines):
        _net, fragments, indexes = cluster_case
        query = sgkq(["w0", "w1"], 4.0)
        cluster = SimulatedCluster.from_fragments(
            fragments, indexes, num_machines=num_machines
        )
        cluster.execute(query)
        with PipelinedCluster.start(
            fragments, indexes, num_machines=num_machines
        ) as pipelined:
            served = pipelined.execute(query)
        assert cluster.ledger.total_bytes == served.message_bytes
        # Every machine hosts all its fragments, so each is sent the
        # one shared broadcast frame.
        by_kind = cluster.ledger.bytes_by_kind()
        assert by_kind["task"] == num_machines * len(query_frame(0, query))

    def test_response_is_the_slowest_machine_round_trip(self, cluster_case):
        _net, fragments, indexes = cluster_case
        network = NetworkModel(latency_seconds=0.001, bandwidth_bytes_per_second=1000.0)
        cluster = SimulatedCluster.from_fragments(fragments, indexes, network=network)
        response = cluster.execute(sgkq(["w0", "w2"], 3.0))
        sent = {t.receiver: t.num_bytes for t in cluster.ledger.transfers if t.kind == "task"}
        back = {t.sender: t.num_bytes for t in cluster.ledger.transfers if t.kind == "result"}
        per_machine = {
            m: 0.002 + (sent[m] + back[m]) / 1000.0 + elapsed
            for m, elapsed in response.machine_seconds.items()
        }
        slowest = max(per_machine, key=per_machine.get)
        assert response.response_seconds == pytest.approx(per_machine[slowest])
        assert response.communication_seconds == pytest.approx(
            0.002 + (sent[slowest] + back[slowest]) / 1000.0
        )

    @pytest.mark.parametrize("failed", [(0,), (0, 1)])
    def test_replicated_answers_survive_failures(self, cluster_case, failed):
        net, fragments, indexes = cluster_case
        cluster = ReplicatedCluster.from_fragments(
            fragments, indexes, num_machines=3, replication_factor=3
        )
        for machine_id in failed:
            cluster.fail_machine(machine_id)
        oracle = CentralizedEvaluator(net)
        location = next(iter(net.object_nodes()))
        for query in (sgkq(["w0", "w1"], 4.0), sgkq(["w2"], 2.0), rkq(location, ["w1"], 5.0)):
            response = cluster.execute(query)
            assert response.result_nodes == oracle.results(query)
            assert set(response.chosen_machines.values()).isdisjoint(failed)


def _no_fork():
    raise AssertionError("build_all_indexes forked")


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@pytest.fixture
def forks(monkeypatch):
    """Make every multi-fragment build fork on three CPUs; collect the child pids."""
    pids: list[int] = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(builder, "_FORK_MIN_PORTALS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", counting_fork)
    assert threading.active_count() == 1, "a live thread would keep the build in process"
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


BUILD_CASES = {
    "random": lambda: make_random_network(seed=210, num_junctions=30, num_objects=14),
    "random-directed": lambda: make_random_network(
        seed=211, num_junctions=30, num_objects=14, directed=True
    ),
    "tied-grid": lambda: make_tied_grid(seed=212, rows=7, cols=6),
    "tied-grid-directed": lambda: make_tied_grid(seed=213, rows=7, cols=6, directed=True),
}
BUILD_CONFIGS = [
    NPDBuildConfig(max_radius=4.0, node_policy=DLNodePolicy.OBJECTS),
    NPDBuildConfig(max_radius=4.0, node_policy=DLNodePolicy.ALL),
    NPDBuildConfig(max_radius=math.inf, node_policy=DLNodePolicy.NONE),
    NPDBuildConfig(max_radius=4.0, strict_tie_rules=True),
]


class TestOneBuilder:
    """``build_all_indexes`` forks only when it pays, and forks to the same answer."""

    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    @pytest.mark.parametrize("config", BUILD_CONFIGS, ids=lambda c: repr(c)[15:60])
    def test_forked_build_equals_per_fragment_loop(self, forks, case, config):
        net = BUILD_CASES[case]()
        fragments = build_fragments(net, BfsPartitioner(seed=3).partition(net, 4))
        indexes, stats = build_all_indexes(net, fragments, config)
        assert len(forks) == 2
        _assert_reaped(forks)
        expected = [build_npd_index(net, fragment, config) for fragment in fragments]
        assert indexes == [index for index, _stats in expected]
        assert [replace(s, wall_seconds=0.0) for s in stats] == [
            replace(s, wall_seconds=0.0) for _index, s in expected
        ]

    def test_shares_balance_portals(self):
        net = BUILD_CASES["tied-grid"]()
        fragments = build_fragments(net, BfsPartitioner(seed=3).partition(net, 6))
        shares = builder._shares(fragments, 2)
        assert sorted(i for share in shares for i in share) == list(range(6))
        loads = [sum(fragments[i].num_portals for i in share) for share in shares]
        assert max(loads) - min(loads) <= max(f.num_portals for f in fragments)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failed_share_raises_and_leaves_nothing_behind(
        self, forks, monkeypatch, cluster_case, where
    ):
        net, fragments, _indexes = cluster_case
        parent = os.getpid()
        build_one = builder.build_npd_index

        def failing(network, fragment, config=None, search=None):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError(f"fragment {fragment.fragment_id} failed")
            return build_one(network, fragment, config, search)

        monkeypatch.setattr(builder, "build_npd_index", failing)
        fds = _open_fds()
        with pytest.raises(ValueError, match="failed"):
            build_all_indexes(net, fragments)
        assert len(forks) == 2
        _assert_reaped(forks)
        assert _open_fds() == fds

    def test_an_unpicklable_child_error_arrives_by_name(self, forks, monkeypatch, cluster_case):
        net, fragments, _indexes = cluster_case
        parent = os.getpid()

        class LocalError(Exception):  # a local class does not pickle
            pass

        def failing(network, fragment, config=None, search=None):
            if os.getpid() != parent:
                raise LocalError("only here")
            return build_npd_index(network, fragment, config, search)

        monkeypatch.setattr(builder, "build_npd_index", failing)
        with pytest.raises(IndexBuildError, match="LocalError: only here"):
            build_all_indexes(net, fragments)
        _assert_reaped(forks)

    def test_no_fork_on_one_cpu(self, forks, monkeypatch, cluster_case):
        net, fragments, indexes = cluster_case
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", _no_fork)
        assert build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))[0] == indexes

    def test_no_fork_for_one_fragment(self, forks, monkeypatch, cluster_case):
        net, fragments, indexes = cluster_case
        monkeypatch.setattr(os, "fork", _no_fork)
        built, _stats = build_all_indexes(net, fragments[:1], NPDBuildConfig(max_radius=math.inf))
        assert built == indexes[:1]

    def test_no_fork_below_the_work_threshold(self, monkeypatch, cluster_case):
        net, fragments, indexes = cluster_case
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", _no_fork)
        assert sum(f.num_portals for f in fragments) < builder._FORK_MIN_PORTALS
        assert build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))[0] == indexes

    def test_no_fork_beside_a_live_thread(self, forks, monkeypatch, cluster_case):
        net, fragments, indexes = cluster_case
        monkeypatch.setattr(os, "fork", _no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            built, _stats = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
        finally:
            release.set()
            thread.join()
        assert built == indexes
