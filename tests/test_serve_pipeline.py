"""Tests for the pipelined (request-id multiplexed) worker cluster."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro import sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.dist import SimulatedCluster
from repro.exceptions import ClusterError
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster

from helpers import make_random_network


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=650, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


@pytest.fixture()
def cluster(built):
    _net, fragments, indexes = built
    with PipelinedCluster.start(fragments, indexes, num_machines=4) as cluster:
        yield cluster


class TestLifecycle:
    def test_start_and_shutdown(self, built):
        _net, fragments, indexes = built
        cluster = PipelinedCluster.start(fragments, indexes)
        assert cluster.num_machines == 4
        assert not cluster.degraded
        cluster.shutdown()
        with pytest.raises(ClusterError):
            cluster.submit(sgkq(["w0"], 1.0))

    def test_double_shutdown_is_safe(self, built):
        _net, fragments, indexes = built
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
        cluster.shutdown()
        cluster.shutdown()

    def test_validation(self, built):
        _net, fragments, indexes = built
        with pytest.raises(ClusterError):
            PipelinedCluster.start(fragments, indexes[:-1])
        with pytest.raises(ClusterError):
            PipelinedCluster.start([], [])

    def test_shutdown_fails_inflight_futures(self, built):
        _net, fragments, indexes = built
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
        pendings = [cluster.submit(sgkq(["w0"], 3.0)) for _ in range(4)]
        cluster.shutdown()
        for pending in pendings:
            # Either it finished before the stop or it was failed — never hangs.
            try:
                pending.future.result(timeout=5)
            except ClusterError:
                pass


class TestExecution:
    def test_execute_matches_oracle(self, built, cluster):
        net, _fragments, _indexes = built
        oracle = CentralizedEvaluator(net)
        for radius in (1.0, 3.0, 6.0):
            query = sgkq(["w0", "w1"], radius)
            response = cluster.execute(query)
            assert response.result_nodes == oracle.results(query)
            assert set(response.fragment_seconds) == {0, 1, 2, 3}
            assert len(response.machine_seconds) == 4
            assert response.message_bytes > 0
            assert not response.degraded

    def test_many_queries_in_flight_match_simulated_cluster(self, built, cluster):
        """≥ 4 queries in flight at once, answers equal the simulation's."""
        net, fragments, indexes = built
        reference = SimulatedCluster.from_fragments(fragments, indexes)
        queries = [
            parse_query("NEAR(w0, 2) AND NEAR(w1, 2)"),
            parse_query("HAS(w2) OR NEAR(w3, 1)"),
            parse_query("NEAR(w0, 5) NOT NEAR(w2, 1)"),
            parse_query("WITHIN(4 OF #0) AND HAS(w0)"),
            sgkq(["w1"], 4.0),
            sgkq(["w0", "w1", "w2"], 6.0),
        ]
        pendings = [cluster.submit(query) for query in queries]  # all in flight
        for query, pending in zip(queries, pendings):
            response = pending.future.result(timeout=30)
            assert response.result_nodes == reference.execute(query).result_nodes

    def test_interleaved_submitters(self, built, cluster):
        """Concurrent submitting threads each get their own answers back."""
        net, _fragments, _indexes = built
        oracle = CentralizedEvaluator(net)
        failures: list[str] = []

        def _submitter(radius: float) -> None:
            query = sgkq(["w0"], radius)
            expected = oracle.results(query)
            for _ in range(5):
                response = cluster.execute(query, timeout_seconds=30)
                if response.result_nodes != expected:
                    failures.append(f"radius {radius}: wrong answer")

        threads = [
            threading.Thread(target=_submitter, args=(radius,))
            for radius in (1.0, 2.0, 3.0, 4.0)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

    def test_forget_drops_late_replies(self, built, cluster):
        pending = cluster.submit(sgkq(["w0"], 3.0))
        cluster.forget(pending.request_id)
        # The reply arrives after the forget and is silently dropped; the
        # next query is unaffected.
        response = cluster.execute(sgkq(["w1"], 2.0))
        assert len(response.machine_seconds) == 4


class TestWorkerCrash:
    def test_death_fails_only_inflight_and_degrades(self, built):
        net, fragments, indexes = built
        oracle = CentralizedEvaluator(net)
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=4)
        try:
            query = sgkq(["w0", "w1"], 5.0)
            pendings = [cluster.submit(query) for _ in range(6)]
            cluster._transport.processes[2].kill()
            # No future may hang: each either completed before the kill
            # or fails with ClusterError within the timeout.
            for pending in pendings:
                try:
                    pending.future.result(timeout=15)
                except ClusterError:
                    pass

            # The dispatcher notices the EOF promptly and flips degraded.
            deadline = threading.Event()
            for _ in range(100):
                if cluster.degraded:
                    break
                deadline.wait(0.05)
            assert cluster.degraded
            assert cluster.dead_machines == frozenset({2})

            # Subsequent queries run on the survivors, marked degraded,
            # and answer with a subset of the full result.
            response = cluster.execute(query, timeout_seconds=15)
            assert response.degraded
            assert 2 not in response.machine_seconds
            assert response.result_nodes <= oracle.results(query)
        finally:
            cluster.shutdown()

    def test_all_workers_dead_raises(self, built):
        _net, fragments, indexes = built
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
        try:
            for process in cluster._transport.processes:
                process.kill()
            for _ in range(100):
                if len(cluster.dead_machines) == 2:
                    break
                threading.Event().wait(0.05)
            with pytest.raises(ClusterError):
                cluster.submit(sgkq(["w0"], 1.0))
        finally:
            cluster.shutdown()


class TestNetworkEmulation:
    def test_pipelining_overlaps_the_emulated_link(self, built):
        """Queued queries hide the modelled latency instead of paying it
        once per query — the reason this cluster exists."""
        from repro.dist import NetworkModel

        _net, fragments, indexes = built
        model = NetworkModel(latency_seconds=0.02)
        with PipelinedCluster.start(
            fragments, indexes, num_machines=2, network_model=model
        ) as cluster:
            single = cluster.execute(sgkq(["w0"], 2.0))
            assert single.wall_seconds >= 2 * model.latency_seconds

            count = 10
            started = time.perf_counter()
            pendings = [cluster.submit(sgkq(["w0"], 2.0)) for _ in range(count)]
            for pending in pendings:
                pending.future.result(timeout=30)
            burst_wall = time.perf_counter() - started
            # Far below count * rtt: the transfers overlapped.
            assert burst_wall < count * 2 * model.latency_seconds
