"""Standing queries through the serving layer (`subscribe`/`notify`).

Covers the wire ops, push delivery interleaved with request/reply
traffic on one connection, the bounded-queue shed-to-resync path, and
connection-close cleanup.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from types import SimpleNamespace

import pytest

from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.queries import sgkq
from repro.live import AddKeyword, EpochManager
from repro.partition import BfsPartitioner
from repro.serve import (
    MetricsRegistry,
    PipelinedCluster,
    ServeClient,
    ServeConfig,
    serve_in_thread,
)
from repro.serve.protocol import encode_line
from repro.serve.server import _Connection, _SubChannel
from repro.sub import SubscriptionEngine, SubscriptionNotice

from helpers import make_random_network


@pytest.fixture(scope="module")
def built():
    net = make_random_network(seed=660, num_junctions=24, num_objects=12, vocabulary=4)
    partition = BfsPartitioner(seed=6).partition(net, 4)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=math.inf))
    return net, partition, fragments, indexes


def live_deployment(built):
    net, partition, fragments, indexes = built
    cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
    manager = EpochManager(
        network=net,
        partition=partition,
        fragments=list(fragments),
        indexes=list(indexes),
    )
    manager.subscribe(
        lambda state, delta: cluster.apply_updates(state.epoch, list(delta.values()))
    )
    return cluster, manager


def wait_until(predicate, timeout_seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestSubscribeWire:
    def test_subscribe_notify_unsubscribe_roundtrip(self, built):
        net = built[0]
        cluster, manager = live_deployment(built)
        engine = SubscriptionEngine(manager)
        node = sorted(net.object_nodes())[0]
        try:
            with serve_in_thread(
                cluster, ServeConfig(max_inflight=8), updater=manager,
                sub_engine=engine,
            ) as server:
                with ServeClient(server.host, server.port) as subscriber, \
                        ServeClient(server.host, server.port) as updater:
                    reply = subscriber.subscribe("HAS(sub-wire-kw)", request_id="r1")
                    assert reply["ok"], reply
                    assert reply["id"] == "r1"
                    assert reply["sub"] == "s1"
                    assert reply["epoch"] == 0
                    assert reply["nodes"] == []
                    assert reply["scored"] is False

                    applied = updater.update([AddKeyword(node, "sub-wire-kw")])
                    assert applied["ok"], applied

                    frames = list(subscriber.notifications(timeout_seconds=5.0))
                    assert frames, "no notify frame arrived"
                    notify = frames[0]
                    assert notify["push"] == "notify"
                    assert notify["sub"] == "s1"
                    assert notify["epoch"] == 1
                    assert notify["added"] == [node]
                    assert notify["removed"] == []

                    dropped = subscriber.unsubscribe("s1")
                    assert dropped["ok"] and dropped["removed"] is True
                    again = subscriber.unsubscribe("s1")
                    assert again["ok"] and again["removed"] is False

                    stats = subscriber.stats()
                    assert stats["counters"]["subscribes_received"] == 1
                    assert stats["counters"]["sub_notifications"] == 1
                    assert stats["subscriptions"]["subscriptions"] == 0
        finally:
            cluster.shutdown()

    def test_errors_are_typed(self, built):
        cluster, manager = live_deployment(built)
        engine = SubscriptionEngine(manager)
        try:
            with serve_in_thread(
                cluster, ServeConfig(max_inflight=8), updater=manager,
                sub_engine=engine,
            ) as server:
                with ServeClient(server.host, server.port) as client:
                    bad_text = client.subscribe("NEAR(")
                    assert bad_text["error"] == "parse"
                    bad_id = client.request(
                        {"op": "subscribe", "q": "HAS(w0)", "sub": 7}
                    )
                    assert bad_id["error"] == "bad-subscribe"
                    client.subscribe("HAS(w0)", sub_id="mine")
                    duplicate = client.subscribe("HAS(w1)", sub_id="mine")
                    assert duplicate["error"] == "bad-subscribe"
                    # Unsubscribe is idempotent: a missing/unknown sub id
                    # is not an error, it just removed nothing.
                    missing = client.request({"op": "unsubscribe"})
                    assert missing["ok"] is True and missing["removed"] is False
        finally:
            cluster.shutdown()

    def test_subscribe_without_engine_rejected(self, built):
        _net, _partition, fragments, indexes = built
        cluster = PipelinedCluster.start(fragments, indexes, num_machines=2)
        try:
            with serve_in_thread(cluster, ServeConfig(max_inflight=8)) as server:
                with ServeClient(server.host, server.port) as client:
                    assert client.subscribe("HAS(w0)")["error"] == "no-sub"
                    assert client.unsubscribe("s1")["error"] == "no-sub"
        finally:
            cluster.shutdown()

    def test_connection_close_unregisters_subscriptions(self, built):
        cluster, manager = live_deployment(built)
        engine = SubscriptionEngine(manager)
        try:
            with serve_in_thread(
                cluster, ServeConfig(max_inflight=8), updater=manager,
                sub_engine=engine,
            ) as server:
                client = ServeClient(server.host, server.port)
                client.subscribe("HAS(w0)")
                client.subscribe("HAS(w1)")
                assert len(engine.registry) == 2
                client.close()
                assert wait_until(lambda: len(engine.registry) == 0), (
                    "subscriptions outlived their connection"
                )
        finally:
            cluster.shutdown()


class TestInterleaving:
    def test_queries_and_notifications_share_a_connection(self, built):
        """Satellite: pushes interleave with request/reply traffic and
        both demux sides park frames for the other."""
        net = built[0]
        cluster, manager = live_deployment(built)
        engine = SubscriptionEngine(manager)
        objects = sorted(net.object_nodes())
        try:
            with serve_in_thread(
                cluster, ServeConfig(max_inflight=8), updater=manager,
                sub_engine=engine,
            ) as server:
                with ServeClient(server.host, server.port) as subscriber, \
                        ServeClient(server.host, server.port) as updater:
                    subscribed = subscriber.subscribe("HAS(interleave-kw)")
                    assert subscribed["ok"]

                    # Round 1: a pipelined query is in flight while a
                    # push arrives; read_reply must skip (and park) it.
                    subscriber.send({"id": "q1", "q": "HAS(w0)"})
                    assert updater.update([AddKeyword(objects[0], "interleave-kw")])[
                        "ok"
                    ]
                    reply = subscriber.read_reply()
                    assert reply["id"] == "q1" and reply["ok"]
                    frames = list(subscriber.notifications(timeout_seconds=5.0))
                    assert [f["added"] for f in frames] == [[objects[0]]]

                    # Round 2: consume the push *first*; the reply the
                    # iterator encounters is parked for read_reply.
                    subscriber.send({"id": "q2", "q": "HAS(w1)"})
                    assert updater.update([AddKeyword(objects[1], "interleave-kw")])[
                        "ok"
                    ]
                    notify = None
                    for frame in subscriber.notifications(timeout_seconds=5.0):
                        notify = frame
                        break
                    assert notify is not None
                    assert notify["push"] == "notify"
                    assert notify["added"] == [objects[1]]
                    reply = subscriber.read_reply()
                    assert reply["id"] == "q2" and reply["ok"]
        finally:
            cluster.shutdown()


class TestShedding:
    def test_channel_sheds_to_resync_when_queue_is_full(self, built):
        """Unit-level shed path: with the drain task unable to run
        between pushes, overflow notices collapse into one resync frame
        carrying the full snapshot."""
        cluster, manager = live_deployment(built)
        engine = SubscriptionEngine(manager)
        metrics = MetricsRegistry()
        # Any standing query with a non-empty result will do.
        sub = engine.register(sgkq(["w0"], 50.0))
        frames: list[bytes] = []

        class FakeWriter:
            def write(self, data: bytes) -> None:
                frames.append(data)

            async def drain(self) -> None:
                pass

        async def respond(conn, payload):
            conn.writer.write(encode_line(payload))
            await conn.writer.drain()

        server = SimpleNamespace(
            metrics=metrics, sub_engine=engine, _respond=respond
        )

        async def scenario():
            conn = _Connection(FakeWriter(), binary=False)
            channel = _SubChannel(
                server, conn, asyncio.get_running_loop(), 1
            )
            channel.subs.add(sub.sub_id)

            def notice(epoch: int) -> SubscriptionNotice:
                return SubscriptionNotice(
                    sub_id=sub.sub_id, epoch=epoch, added=(epoch,), removed=()
                )

            # Three pushes with no await in between: the first fills the
            # queue (limit 1), the next two are dropped and marked.
            channel.push(notice(1))
            channel.push(notice(2))
            channel.push(notice(3))
            await asyncio.sleep(0.1)  # let the drain task run

        asyncio.run(scenario())
        try:
            decoded = [json.loads(line) for line in frames]
            assert [frame["push"] for frame in decoded] == ["notify", "resync"]
            assert decoded[0]["epoch"] == 1
            resync = decoded[1]
            assert resync["sub"] == sub.sub_id
            assert resync["dropped"] == 2
            assert resync["nodes"] == sorted(sub.result)
            assert resync["epoch"] == engine.epoch
            assert metrics.counter("sub_dropped") == 2
            assert metrics.counter("sub_resyncs") == 1
        finally:
            cluster.shutdown()

    def test_slow_consumer_converges_via_resync(self, built):
        """E2E contract: a client that stops reading, then replays the
        frame stream (applying deltas, honouring resync's discard rule),
        ends bit-identical to the server's state for every sub."""
        net = built[0]
        cluster, manager = live_deployment(built)
        engine = SubscriptionEngine(manager)
        objects = sorted(net.object_nodes())
        num_subs, num_batches = 8, 5
        try:
            with serve_in_thread(
                cluster,
                ServeConfig(max_inflight=8, sub_queue_limit=1),
                updater=manager,
                sub_engine=engine,
            ) as server:
                with ServeClient(server.host, server.port) as subscriber, \
                        ServeClient(server.host, server.port) as updater:
                    states: dict[str, set[int]] = {}
                    resync_epoch: dict[str, int] = {}
                    for i in range(num_subs):
                        reply = subscriber.subscribe(f"HAS(shed-kw{i % 2})")
                        assert reply["ok"], reply
                        states[reply["sub"]] = set(reply["nodes"])
                        resync_epoch[reply["sub"]] = reply["epoch"]

                    # Updates affecting every subscription, while the
                    # subscriber reads nothing.
                    for batch in range(num_batches):
                        node = objects[batch % len(objects)]
                        ops = [AddKeyword(node, f"shed-kw{batch % 2}")]
                        assert updater.update(ops)["ok"]
                    # Let pending drains flush before draining frames.
                    time.sleep(0.3)

                    for frame in subscriber.notifications(timeout_seconds=1.0):
                        sub_id = frame["sub"]
                        if frame["push"] == "resync":
                            states[sub_id] = set(frame["nodes"])
                            resync_epoch[sub_id] = frame["epoch"]
                            continue
                        assert frame["push"] == "notify"
                        if frame["epoch"] <= resync_epoch[sub_id]:
                            continue  # superseded by a resync
                        states[sub_id] |= set(frame["added"])
                        states[sub_id] -= set(frame["removed"])

                    for sub_id, nodes in states.items():
                        expected = engine.snapshot(sub_id)["nodes"]
                        assert sorted(nodes) == expected, sub_id
        finally:
            cluster.shutdown()
