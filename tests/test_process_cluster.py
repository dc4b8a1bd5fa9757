"""Tests for the process-cluster core: its worker loop and its coordinator.

The coordinator checks run under both subclasses — broadcast
(:class:`PipelinedCluster`) and replica routing (:class:`HACluster`) —
since everything but routing and death policy is shared.  The worker
loop is driven directly in a thread over a ``multiprocessing.Pipe``, no
fork, one message kind at a time.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import time
from multiprocessing import Pipe

import pytest

from repro import sgkq
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.coverage import FragmentRuntime
from repro.core.executor import execute_fragment_task
from repro.core.kernel import FragmentKernel
from repro.dist import NetworkModel
from repro.dist.process_cluster import worker_main
from repro.exceptions import ClusterError
from repro.ha import HACluster
from repro.live import AddKeyword, EpochManager, RemoveKeyword
from repro.partition import BfsPartitioner
from repro.serve import PipelinedCluster, wire

from helpers import make_random_network


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=650, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, partition, fragments, indexes


def start_both(fragments, indexes, num_machines=4, **options):
    """The core under each coordinator: ``(name, start thunk)`` pairs."""
    return [
        ("pipelined", lambda: PipelinedCluster.start(
            fragments, indexes, num_machines=num_machines, **options
        )),
        ("ha", lambda: HACluster.start(
            fragments, indexes, num_machines=num_machines,
            replication_factor=min(2, num_machines), **options
        )),
    ]


class TestLifecycle:
    def test_start_and_shutdown(self, built):
        _net, _partition, fragments, indexes = built
        for _name, start in start_both(fragments, indexes):
            cluster = start()
            assert cluster.num_machines == 4
            assert not cluster.degraded
            cluster.shutdown()
            with pytest.raises(ClusterError):
                cluster.execute(sgkq(["w0"], 1.0))

    def test_context_manager(self, built):
        net, _partition, fragments, indexes = built
        for _name, start in start_both(fragments, indexes, num_machines=2):
            with start() as cluster:
                assert cluster.num_machines == 2
                response = cluster.execute(sgkq(["w0"], 3.0))
                assert response.result_nodes == CentralizedEvaluator(net).results(
                    sgkq(["w0"], 3.0)
                )

    def test_validation(self, built):
        _net, _partition, fragments, indexes = built
        for _name, start in start_both(fragments, indexes[:-1]) + start_both([], []):
            with pytest.raises(ClusterError):
                start()
        with pytest.raises(ClusterError, match="pipe wire"):
            PipelinedCluster.start(fragments, indexes, pipe_wire="pickle")

    def test_double_shutdown_is_safe(self, built):
        _net, _partition, fragments, indexes = built
        for _name, start in start_both(fragments, indexes, num_machines=2):
            cluster = start()
            cluster.shutdown()
            cluster.shutdown()


class TestExecution:
    def test_matches_oracle_over_batch(self, built):
        net, _partition, fragments, indexes = built
        oracle = CentralizedEvaluator(net)
        for _name, start in start_both(fragments, indexes):
            with start() as cluster:
                for radius in (1.0, 3.0, 6.0):
                    query = sgkq(["w0", "w1"], radius)
                    response = cluster.execute(query)
                    assert response.result_nodes == oracle.results(query)
                    assert set(response.fragment_seconds) == {0, 1, 2, 3}
                    assert response.message_bytes > 0
                    assert response.wall_seconds > 0
                    assert response.attempt == 0 and response.partials is None

    def test_fewer_machines_than_fragments(self, built):
        net, _partition, fragments, indexes = built
        oracle = CentralizedEvaluator(net)
        query = sgkq(["w1", "w2"], 4.0)
        for _name, start in start_both(fragments, indexes, num_machines=2):
            with start() as cluster:
                response = cluster.execute(query)
                assert response.result_nodes == oracle.results(query)
                assert len(response.machine_seconds) == 2
                assert len(response.fragment_seconds) == 4


class TestWorkerCrash:
    def test_dead_worker_surfaces_cluster_error_not_a_hang(self, built):
        """A worker killed under an in-flight query never hangs it.

        Broadcast has no other copy, so the query fails with a
        ClusterError; replica routing re-dispatches the owed tasks and
        answers exactly.
        """
        net, _partition, fragments, indexes = built
        query = sgkq(["w0"], 2.0)
        expected = CentralizedEvaluator(net).results(query)
        # Two machines: load routing spreads the four tasks, so the
        # victim always owes some.
        for name, start in start_both(fragments, indexes, num_machines=2):
            with start() as cluster:
                cluster.execute(query)  # healthy first
                victim = cluster._transport.processes[1]
                os.kill(victim.pid, signal.SIGSTOP)  # the task sits in its pipe
                pending = cluster.submit(query)
                victim.kill()
                if name == "pipelined":
                    with pytest.raises(ClusterError, match="died"):
                        pending.future.result(timeout=10)
                else:
                    response = pending.future.result(timeout=10)
                    assert response.result_nodes == expected
                    assert response.attempt > 0 and not response.degraded


class TestNetworkEmulation:
    def test_emulated_link_charges_the_round_trip(self, built):
        """With a network model, each query pays ≥ one modelled RTT."""
        net, _partition, fragments, indexes = built
        model = NetworkModel(latency_seconds=0.02)
        query = sgkq(["w0"], 2.0)
        for _name, start in start_both(
            fragments, indexes, num_machines=2, network_model=model
        ):
            with start() as cluster:
                response = cluster.execute(query)
                assert response.wall_seconds >= 2 * model.latency_seconds
                assert response.result_nodes == CentralizedEvaluator(net).results(query)


# ----------------------------------------------------------------------
# The worker loop, in a thread
# ----------------------------------------------------------------------
HOSTED = (0, 1, 2)  # fragment 3 lives elsewhere


@pytest.fixture()
def worker(built):
    """A running :func:`worker_main` hosting fragments 0-2, and its pipe."""
    _net, _partition, fragments, indexes = built
    pairs = [(fragments[fid], indexes[fid]) for fid in HOSTED]
    parent, child = Pipe()
    payload = pickle.dumps(("pickle", pairs, None))
    thread = threading.Thread(target=worker_main, args=(child, payload), daemon=True)
    thread.start()
    assert parent.recv() == ("ready", len(HOSTED))
    yield parent
    thread.join(timeout=0.5)  # a test that sent "stop" has ended the loop
    if thread.is_alive():
        parent.send(("stop", None))
        assert parent.recv() == ("stopped", None)
        thread.join(timeout=10)
    assert not thread.is_alive()


def ask(connection, kind, body):
    """Send one pickled message; return the decoded reply."""
    connection.send_bytes(pickle.dumps((kind, body, time.perf_counter())))
    return wire.loads_pipe(connection.recv_bytes())


def expected_runs(built, query, fragment_ids):
    _net, _partition, fragments, indexes = built
    return [
        execute_fragment_task(FragmentRuntime(fragments[fid], indexes[fid]), query).run
        for fid in fragment_ids
    ]


class TestWorkerMain:
    def test_fragment_subset_and_empty_means_all(self, built, worker):
        query = sgkq(["w0", "w1"], 4.0)
        worker.send_bytes(wire.dumps_pipe_query(1, query, time.perf_counter(), 2, (2, 0)))
        kind, (request_id, reply, _elapsed, attempt), _sent = wire.loads_pipe(
            worker.recv_bytes()
        )
        assert (kind, request_id, attempt) == ("results", 1, 2)
        assert [fid for fid, _run, _s in reply] == [2, 0]
        assert [run for _fid, run, _s in reply] == expected_runs(built, query, (2, 0))

        worker.send_bytes(wire.dumps_pipe_query(2, query, time.perf_counter()))
        kind, body, _sent = wire.loads_pipe(worker.recv_bytes())
        assert kind == "results" and len(body) == 3  # attempt 0 is not on the wire
        assert [fid for fid, _run, _s in body[1]] == list(HOSTED)
        assert [run for _fid, run, _s in body[1]] == expected_runs(built, query, HOSTED)

    def test_explain_on_a_subset(self, built, worker):
        query = sgkq(["w0", "w1"], 4.0)
        kind, body, _sent = ask(worker, "explain", (3, query, None, 0, (1,)))
        request_id, reply, _elapsed, attempt, spans = body
        assert (kind, request_id, attempt, spans) == ("results", 3, 0, None)
        ((fragment_id, (run, columns), _seconds),) = reply
        assert fragment_id == 1
        assert list(run) == list(expected_runs(built, query, (1,))[0])
        assert len(columns) == 2 and all(len(column) == len(run) for column in columns)

    def test_apply_seeds_then_query(self, built, worker):
        net, partition, fragments, indexes = built
        manager = EpochManager(
            network=net, partition=partition, fragments=list(fragments), indexes=list(indexes)
        )
        deltas = []
        manager.subscribe(lambda state, delta: deltas.append(delta))
        objects = sorted(net.object_nodes())
        carrier = next(n for n in objects if "w0" in net.keywords(n))
        manager.apply([AddKeyword(objects[0], "fresh"), RemoveKeyword(carrier, "w0")])
        (delta,) = deltas
        assert delta.seed_keys is not None
        patches = {
            fragment.fragment_id: FragmentKernel.seed_patch(
                fragment, index, delta.seed_keys[fragment.fragment_id]
            )
            for fragment, index in delta.values()
            if fragment.fragment_id in HOSTED
        }
        assert patches
        kind, (request_id, epoch, swapped, _elapsed), _sent = ask(
            worker, "apply_seeds", (4, 1, patches)
        )
        assert (kind, request_id, epoch, sorted(swapped)) == ("applied", 4, 1, sorted(patches))

        state = manager.state
        for query in (sgkq(["fresh"], 2.0), sgkq(["w0"], 2.0)):
            worker.send_bytes(wire.dumps_pipe_query(5, query, time.perf_counter()))
            _kind, (_rid, reply, _elapsed), _sent = wire.loads_pipe(worker.recv_bytes())
            fresh = [
                execute_fragment_task(
                    FragmentRuntime(state.fragments[fid], state.indexes[fid]), query
                ).run
                for fid in HOSTED
            ]
            assert [run for _fid, run, _s in reply] == fresh

    def test_cache_stats(self, worker):
        assert ask(worker, "cache_stats", (6,))[:2] == (
            "stats", (6, {"hits": 0, "misses": 0})
        )

    def test_config_delay_is_slept_per_task(self, worker):
        worker.send_bytes(pickle.dumps(("config", {"machine_delay": 0.05})))
        query = sgkq(["w0"], 1.0)
        worker.send_bytes(wire.dumps_pipe_query(7, query, time.perf_counter(), 0, (0, 1)))
        _kind, (request_id, _reply, elapsed), _sent = wire.loads_pipe(worker.recv_bytes())
        assert request_id == 7 and elapsed >= 2 * 0.05

    def test_unknown_fragment_is_a_tagged_error_and_the_loop_serves_on(self, built, worker):
        query = sgkq(["w0"], 1.0)
        worker.send_bytes(wire.dumps_pipe_query(8, query, time.perf_counter(), 0, (3,)))
        kind, (request_id, text), *_ = wire.loads_pipe(worker.recv_bytes())
        assert (kind, request_id) == ("error", 8)
        assert "not hosted" in text
        kind, body, _sent = ask(worker, "query", (9, query, None, 0, (1,)))
        assert kind == "results" and body[0] == 9
        assert [run for _fid, run, _s in body[1]] == expected_runs(built, query, (1,))

    def test_stop(self, worker):
        worker.send(("stop", None))
        assert worker.recv() == ("stopped", None)
        assert not worker.poll(0.2)  # nothing follows the last reply
