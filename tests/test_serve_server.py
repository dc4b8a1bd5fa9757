"""End-to-end tests for the NDJSON TCP frontend."""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future

import pytest

from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.dist import SimulatedCluster
from repro.partition import BfsPartitioner
from repro.serve import (
    MetricsRegistry,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    generate_expressions,
    run_loadgen,
    serve_in_thread,
)
from repro.serve.pipeline import PendingQuery

from helpers import make_random_network


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=650, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


@pytest.fixture(scope="module")
def cluster(built):
    _net, fragments, indexes = built
    with PipelinedCluster.start(fragments, indexes, num_machines=4) as cluster:
        yield cluster


@pytest.fixture()
def server(cluster):
    with serve_in_thread(cluster, ServeConfig(max_inflight=16)) as server:
        yield server


EXPRESSIONS = [
    "NEAR(w0, 2) AND NEAR(w1, 2)",
    "HAS(w2) OR NEAR(w3, 1)",
    "NEAR(w0, 5) NOT NEAR(w2, 1)",
    "WITHIN(4 OF #0) AND HAS(w0)",
    "NEAR(w1, 4)",
    "NEAR(w0, 6) AND NEAR(w1, 6) AND NEAR(w2, 6)",
]


class TestProtocol:
    def test_ping_info_and_stats(self, server):
        with ServeClient(server.host, server.port) as client:
            assert client.request({"op": "ping"})["pong"] is True
            info = client.info()
            assert info["machines"] == 4
            assert info["degraded"] is False
            stats = client.stats()
            assert stats["admission"]["limit"] == 16
            assert stats["cluster"]["machines"] == 4
            # Worker-process clusters aggregate the coverage-cache
            # counters over a control round-trip to every worker.
            assert set(stats["coverage_cache"]) == {"hits", "misses"}
            for value in stats["coverage_cache"].values():
                assert isinstance(value, int) and value >= 0
            # No ServeConfig(cache=True): the result cache stays absent.
            assert "result_cache" not in stats

    def test_stats_surfaces_coverage_cache_counters(self, built):
        """Clusters that aggregate cache counters show up in ``stats``."""
        from repro.serve.server import DisksServer

        _net, fragments, indexes = built
        sim = SimulatedCluster.from_fragments(fragments, indexes, cache_capacity=8)

        class StatsOnlyCluster:
            """Just enough cluster surface for DisksServer.stats()."""

            num_machines = sim.num_machines
            degraded = False
            dead_machines: set[int] = set()
            coverage_cache_stats = staticmethod(sim.coverage_cache_stats)

        query = parse_query("NEAR(w0, 3)")
        sim.execute(query)
        sim.execute(query)
        snapshot = DisksServer(StatsOnlyCluster()).stats()
        cache = snapshot["coverage_cache"]
        # Every term evaluation consulted a cache: the repeat hit everywhere.
        assert cache == {"hits": len(fragments), "misses": len(fragments)}

    def test_query_matches_simulated_cluster(self, built, server):
        _net, fragments, indexes = built
        reference = SimulatedCluster.from_fragments(fragments, indexes)
        with ServeClient(server.host, server.port) as client:
            for i, expression in enumerate(EXPRESSIONS):
                reply = client.query(expression, request_id=i)
                assert reply["ok"], reply
                assert reply["id"] == i
                expected = reference.execute(parse_query(expression)).result_nodes
                assert set(reply["nodes"]) == set(expected)
                assert reply["timing"]["latency_ms"] > 0
                assert reply["timing"]["message_bytes"] > 0

    def test_error_replies(self, server):
        with ServeClient(server.host, server.port) as client:
            bad_json = client.request({"op": "query"})  # no 'q'
            assert bad_json["error"] == "bad-request"
            assert client.request({"op": "nope"})["error"] == "unknown-op"
            parse_reply = client.query("NEAR(")
            assert parse_reply["error"] == "parse"
            client.send({"raw": True})
            client._sock.sendall(b"this is not json\n")
            replies = [client.read_reply(), client.read_reply()]
            assert any(r.get("error") == "bad-json" for r in replies)

    def test_radius_guard(self, cluster):
        config = ServeConfig(max_inflight=4, max_radius=3.0)
        with serve_in_thread(cluster, config) as server:
            with ServeClient(server.host, server.port) as client:
                ok = client.query("NEAR(w0, 2)")
                assert ok["ok"], ok
                rejected = client.query("NEAR(w0, 50)")
                assert rejected["error"] == "radius"


class TestConcurrency:
    def test_pipelined_burst_sustains_concurrent_inflight(self, built, server):
        """≥ 4 queries concurrently in flight, all answered correctly."""
        _net, fragments, indexes = built
        reference = SimulatedCluster.from_fragments(fragments, indexes)
        burst = 12
        with ServeClient(server.host, server.port) as client:
            for i in range(burst):
                client.send({"id": i, "q": EXPRESSIONS[i % len(EXPRESSIONS)]})
            replies = {reply["id"]: reply for reply in (client.read_reply() for _ in range(burst))}
            assert set(replies) == set(range(burst))
            for i, reply in replies.items():
                assert reply["ok"], reply
                expected = reference.execute(
                    parse_query(EXPRESSIONS[i % len(EXPRESSIONS)])
                ).result_nodes
                assert set(reply["nodes"]) == set(expected)
            stats = client.stats()
        assert stats["gauges"]["inflight"]["peak"] >= 4
        histogram = stats["histograms"]["latency_seconds"]
        assert histogram["count"] >= burst
        assert histogram["p50_ms"] > 0
        assert histogram["p99_ms"] >= histogram["p50_ms"]
        assert sum(float(s) for s in stats["busy_seconds"].values()) > 0

    def test_many_connections_in_parallel(self, built, server):
        _net, fragments, indexes = built
        reference = SimulatedCluster.from_fragments(fragments, indexes)
        failures: list[str] = []

        def _drive(expression: str) -> None:
            expected = reference.execute(parse_query(expression)).result_nodes
            try:
                with ServeClient(server.host, server.port) as client:
                    for _ in range(4):
                        reply = client.query(expression)
                        if not reply.get("ok") or set(reply["nodes"]) != set(expected):
                            failures.append(f"{expression}: {reply}")
            except Exception as error:  # pragma: no cover - surfaced via assert
                failures.append(f"{expression}: {error}")

        threads = [
            threading.Thread(target=_drive, args=(expression,))
            for expression in EXPRESSIONS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures


class TestAdmissionControl:
    def test_load_shedding_past_high_water_mark(self, cluster):
        metrics = MetricsRegistry()
        with serve_in_thread(cluster, ServeConfig(max_inflight=1), metrics) as server:
            burst = 24
            with ServeClient(server.host, server.port) as client:
                for i in range(burst):
                    client.send({"id": i, "q": "NEAR(w0, 5) AND NEAR(w1, 5)"})
                replies = [client.read_reply() for _ in range(burst)]
            ok = [r for r in replies if r.get("ok")]
            shed = [r for r in replies if r.get("error") == "overloaded"]
            assert len(ok) >= 1
            assert len(shed) >= 1
            assert len(ok) + len(shed) == burst
            assert metrics.counter("shed") == len(shed)
            assert metrics.counter("completed") == len(ok)

    def test_shed_replies_are_immediate_and_tagged(self, cluster):
        with serve_in_thread(cluster, ServeConfig(max_inflight=1)) as server:
            with ServeClient(server.host, server.port) as client:
                for i in range(8):
                    client.send({"id": i, "q": "NEAR(w0, 5)"})
                replies = {r["id"]: r for r in (client.read_reply() for _ in range(8))}
                # Every request got an explicit reply with its own id.
                assert set(replies) == set(range(8))


class _StuckCluster:
    """A cluster whose queries never complete — exercises the timeout path."""

    num_machines = 1
    degraded = False
    dead_machines = frozenset()

    def __init__(self) -> None:
        self.forgotten: list[int] = []

    def submit(self, _query) -> PendingQuery:
        return PendingQuery(request_id=7, future=Future())

    def forget(self, request_id: int) -> None:
        self.forgotten.append(request_id)


class TestTimeouts:
    def test_query_timeout_reply_and_forget(self):
        stuck = _StuckCluster()
        config = ServeConfig(query_timeout_seconds=0.2)
        with serve_in_thread(stuck, config) as server:
            with ServeClient(server.host, server.port) as client:
                reply = client.query("HAS(w0)")
        assert reply["error"] == "timeout"
        assert stuck.forgotten == [7]


class TestLoadGenerator:
    def test_closed_loop_run_against_live_server(self, built, server):
        net, _fragments, _indexes = built
        expressions = generate_expressions(
            net, count=20, radius=4.0, num_keywords=2, seed=5
        )
        report = run_loadgen(
            server.host, server.port, expressions, num_clients=4
        )
        assert report.sent == 20
        assert report.ok == 20
        assert report.shed == 0
        assert report.errors == 0
        assert report.throughput_qps > 0
        assert 0 < report.percentile(0.5) <= report.percentile(0.99)
        assert report.p50_ms <= report.p95_ms <= report.p99_ms


class TestDegradedServing:
    def test_worker_death_keeps_the_server_answering(self, built):
        """A fresh cluster (not the shared fixture) loses one worker."""
        net, fragments, indexes = built
        oracle = CentralizedEvaluator(net)
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=4)
        try:
            with serve_in_thread(cluster, ServeConfig(max_inflight=8)) as server:
                with ServeClient(server.host, server.port) as client:
                    healthy = client.query("NEAR(w0, 3)")
                    assert healthy["ok"] and not healthy["degraded"]
                    cluster._transport.processes[1].kill()
                    for _ in range(100):
                        if cluster.degraded:
                            break
                        threading.Event().wait(0.05)
                    reply = client.query("NEAR(w0, 3)")
                    assert reply["ok"], reply
                    assert reply["degraded"] is True
                    expected = oracle.results(parse_query("NEAR(w0, 3)"))
                    assert set(reply["nodes"]) <= set(expected)
                    stats = client.stats()
                    assert stats["cluster"]["degraded"] is True
                    assert stats["cluster"]["dead_machines"] == [1]
        finally:
            cluster.shutdown()
