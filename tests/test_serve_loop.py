"""The frontend's event loop: no task and no cycle per query, bounded writes.

A query costs the loop two synchronous steps (``DisksServer._begin`` on
the turn that decodes it, ``DisksServer._finish`` as one callback when
the cluster future completes), so a burst must leave the loop's task
count flat and, with the cyclic collector off, leave no answer behind in
a reference cycle.  A client that pipelines queries and never reads must
stop being read, with its transport's write buffer bounded, while other
connections keep being answered.
"""

from __future__ import annotations

import asyncio
import gc
import math
import socket
import threading
import time
from array import array
from concurrent.futures import Future

import pytest

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments, parse_query
from repro.core.queries import sgkq
from repro.dist import SimulatedCluster
from repro.dist.process_cluster import PipelinedResponse
from repro.partition import BfsPartitioner
from repro.serve import BinaryServeClient, PipelinedCluster, ServeClient, ServeConfig
from repro.serve import serve_in_thread, wire
from repro.serve.pipeline import PendingQuery

from helpers import make_random_network

STUCK = "stuck"  # a keyword whose queries never complete at the cluster
BURST = 200


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=680, num_junctions=60, num_objects=30, vocabulary=5)
    partition = BfsPartitioner(seed=9).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, fragments, indexes


@pytest.fixture(scope="module")
def cluster(built):
    _net, fragments, indexes = built
    with PipelinedCluster.start(fragments, indexes, num_machines=2) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def reference(built):
    _net, fragments, indexes = built
    return SimulatedCluster.from_fragments(fragments, indexes)


class _StallingCluster:
    """The real cluster, except that queries naming :data:`STUCK` never finish."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.forgotten: list[int] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def submit(self, query, **kwargs) -> PendingQuery:
        if any(getattr(t.source, "keyword", None) == STUCK for t in query.terms):
            return PendingQuery(request_id=-1, future=Future())
        return self._inner.submit(query, **kwargs)

    def forget(self, request_id: int) -> None:
        if request_id == -1:
            self.forgotten.append(request_id)
        else:
            self._inner.forget(request_id)


def _expressions(net) -> list[str]:
    """A burst mix: repeats (cache hits), distinct shapes (misses), stalls."""
    keywords = sorted(net.all_keywords())
    shapes = [f"NEAR({kw}, {r})" for kw in keywords for r in (2, 5, 9)]
    burst = []
    for i in range(BURST):
        if i % 50 == 7:
            burst.append(f"NEAR({STUCK}, 3)")
        elif i % 3 == 0:
            burst.append(shapes[0])
        else:
            burst.append(shapes[i % len(shapes)])
    return burst


def _on_loop(server, fn):
    """Run ``fn`` on the server's event loop thread and return its result."""

    async def call():
        return fn()

    loop = server._server.get_loop()
    return asyncio.run_coroutine_threadsafe(call(), loop).result(timeout=10.0)


def _task_count(server) -> int:
    return _on_loop(server, lambda: len(asyncio.all_tasks()))


def _wait_for(predicate, what: str, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.005)


class _NdjsonWire:
    def __init__(self, server) -> None:
        self.client = ServeClient(server.host, server.port)

    def send(self, request_id: int, expression: str) -> None:
        self.client.send({"id": request_id, "q": expression})

    def read(self) -> dict:
        return self.client.read_reply()

    def close(self) -> None:
        self.client.close()


class _BinaryWire:
    def __init__(self, server) -> None:
        self.client = BinaryServeClient(server.host, server.port)

    def send(self, request_id: int, expression: str) -> None:
        self.client.send_query(expression, request_id)

    def read(self) -> dict:
        return self.client.read_reply()

    def close(self) -> None:
        self.client.close()


def _burst(server, net, reference, protocol) -> list[int]:
    """Send one burst, sample the loop's tasks mid-flight, check every reply.

    Returns the task counts sampled on the open connection: before the
    burst, mid-burst (every request read, the stalled ones still pending)
    and after the last reply.
    """
    burst = _expressions(net)
    client = protocol(server)
    try:
        # One round trip first: it admits the burst's repeated shape to
        # the result cache, so the burst holds hits whatever the timing.
        client.send(BURST, burst[0])
        assert client.read()["ok"]
        counts = [_task_count(server)]
        received = server.metrics.counter("received")
        for request_id, expression in enumerate(burst):
            client.send(request_id, expression)
        _wait_for(
            lambda: server.metrics.counter("received") - received == BURST,
            "the server to read the burst",
        )
        counts.append(_task_count(server))
        replies = {reply["id"]: reply for reply in (client.read() for _ in burst)}
        counts.append(_task_count(server))
    finally:
        client.close()
    assert set(replies) == set(range(BURST))
    for request_id, expression in enumerate(burst):
        reply = replies[request_id]
        if STUCK in expression:
            assert reply["error"] == "timeout", reply
            continue
        assert reply["ok"], reply
        expected = reference.execute(parse_query(expression)).result_nodes
        assert sorted(reply["nodes"]) == sorted(expected)
    return counts


@pytest.fixture()
def stalling_server(cluster):
    stalling = _StallingCluster(cluster)
    config = ServeConfig(max_inflight=BURST, query_timeout_seconds=1.0, cache=True)
    with serve_in_thread(stalling, config) as server:
        yield server, stalling


@pytest.mark.parametrize("protocol", [_NdjsonWire, _BinaryWire], ids=["ndjson", "binary"])
class TestNoTaskPerQuery:
    def test_burst_leaves_the_task_count_flat(
        self, built, reference, stalling_server, protocol
    ):
        net = built[0]
        server, stalling = stalling_server
        before, mid, after = _burst(server, net, reference, protocol)
        # One handler task per connection, none per query: the stalled
        # queries wait on a timer, not in a task.
        assert before == mid == after, (before, mid, after)
        stalls = sum(STUCK in expression for expression in _expressions(net))
        assert server.metrics.counter("timeouts") == stalls
        assert len(stalling.forgotten) == stalls
        cache = server.result_cache.stats()
        assert cache["hits"] > 0 and cache["misses"] > 0
        assert server.admission.depth == 0

    def test_burst_leaves_no_answer_in_a_cycle(
        self, built, reference, stalling_server, protocol
    ):
        net = built[0]
        server, _ = stalling_server
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            _burst(server, net, reference, protocol)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        responses = [obj for obj in garbage if isinstance(obj, PipelinedResponse)]
        answers = [
            obj for obj in gc.get_referents(*garbage) if isinstance(obj, array)
        ]
        del garbage
        assert responses == []
        assert answers == []


class TestBackpressure:
    """A client that pipelines 2,000 queries and never reads its replies."""

    def test_a_client_that_does_not_read_stops_being_read(self, built, reference, cluster):
        net = built[0]
        keyword = sorted(net.all_keywords())[0]
        # A long label makes each frame ~2 KiB, so one 64 KiB read holds
        # few queries and the bound below means something; the radius
        # makes each answer cover the whole network.
        query = sgkq([keyword], 1e9, label="x" * 2000)
        frame = wire.encode_frame(wire.FRAME_QUERY, wire.encode_query_payload(0, query))
        answer_bytes = len(
            wire.encode_answer(
                0, reference.execute(query).result_nodes, degraded=False,
                latency_ms=0.0, wall_ms=0.0, makespan_ms=0.0, message_bytes=0,
            )
        )
        writers = []
        config = ServeConfig(max_inflight=16)
        with serve_in_thread(cluster, config) as server:
            serve_connection = server._serve_connection

            async def spy(reader, writer):
                writers.append(writer)
                await serve_connection(reader, writer)

            server._serve_connection = spy
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect((server.host, server.port))
            sender = threading.Thread(
                target=self._pipeline, args=(stalled, frame), daemon=True
            )
            try:
                sender.start()
                _wait_for(lambda: writers, "the connection")
                transport = writers[0].transport
                _on_loop(
                    server,
                    lambda: writers[0].get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                    ),
                )
                # Wait until the server stops reading, then watch it stay
                # stopped while the write buffer stays bounded.
                last, quiet_since = -1, time.monotonic()
                while time.monotonic() - quiet_since < 0.5:
                    received = server.metrics.counter("received")
                    if received != last:
                        last, quiet_since = received, time.monotonic()
                    time.sleep(0.02)
                high = _on_loop(server, lambda: transport.get_write_buffer_limits()[1])
                buffered = _on_loop(server, transport.get_write_buffer_size)
                # Past the drain that let it through, the loop reads one more
                # chunk; the replies still to land are that chunk's and
                # those of the queries in flight (at most max_inflight).
                chunk_queries = -(-65536 // len(frame)) + 1
                limit = high + (config.max_inflight + chunk_queries) * answer_bytes
                assert 0 < last < 2000
                assert buffered <= limit, (buffered, high)
                # Meanwhile another connection is answered, and correctly.
                others = [e for e in _expressions(net)[:40] if STUCK not in e]
                with BinaryServeClient(server.host, server.port) as other:
                    for expression in others:
                        reply = other.query(expression)
                        assert reply["ok"], reply
                        expected = reference.execute(parse_query(expression))
                        assert sorted(reply["nodes"]) == sorted(expected.result_nodes)
                assert server.metrics.counter("received") - last == len(others)
            finally:
                stalled.close()
                sender.join(timeout=10.0)

    @staticmethod
    def _pipeline(sock: socket.socket, frame: bytes) -> None:
        try:
            sock.sendall(wire.encode_preamble())
            for _ in range(2000):
                sock.sendall(frame)
        except OSError:
            pass  # closed by the test once it has seen enough
