"""Asyncio TCP frontend over a pipelined cluster.

The server accepts newline-delimited JSON (see
:mod:`repro.serve.protocol`), parses queries with the
:func:`repro.core.language.parse_query` grammar, fans them out through
:class:`~repro.serve.pipeline.PipelinedCluster`, and streams replies —
out of order if faster queries finish first, matched by id.

Robustness controls, per request:

* **admission** — at most ``max_inflight`` queries run concurrently;
  beyond that the server replies ``overloaded`` immediately (load
  shedding) rather than queueing without bound;
* **timeout** — a query that exceeds ``query_timeout_seconds`` gets a
  ``timeout`` reply and is forgotten at the cluster (its late replies
  are dropped);
* **degraded mode** — after a worker crash, answers keep flowing from
  the survivors and carry ``"degraded": true``.

A query costs the event loop two synchronous steps and no task.  The
first runs on the turn that decodes the request: admission, parse,
cache probe and submit (:meth:`DisksServer._begin`); a cache hit is
answered right there.  The second is one loop callback, scheduled by
the cluster future's done-callback, that does the completion
bookkeeping, encodes the reply and writes it whole
(:meth:`DisksServer._finish`).  The timeout is one ``call_later`` timer,
cancelled on completion; a reply that arrives after it fired is
dropped.  Binary QUERY and BATCH frames and the NDJSON ``query`` op all
take this path; the other ops (stats, update, subscribe, chaos, ...)
run as coroutines.

Reads: a binary connection reads chunks and parses them with the
sans-IO :class:`~repro.serve.wire.FrameDecoder`, handling each frame
inline in arrival order, so a malformed frame closes the connection
before any later frame runs.  A partial frame must complete within
``frame_timeout_seconds`` of its first byte; waiting for the next frame
is unbounded.  Backpressure: replies are written as soon as they are
ready, and each read loop awaits ``drain()`` before its next read, so
a client that stops reading stops being read.

The cluster argument is duck-typed (``submit``/``forget``/
``num_machines``/``degraded``/``dead_machines``), which the tests use
to inject failure modes.

Live updates: constructed with an ``updater`` (an
:class:`~repro.live.epochs.EpochManager`, typically subscribed to push
epoch deltas into the same cluster), the server additionally accepts
``update`` batches — admission-controlled like queries, applied off the
event loop — and the ``epoch`` admin op.  Update observability:
``epoch`` gauge, ``updates`` / ``update_ops`` / ``segments_published``
counters (the last stays flat across keyword-only batches),
``apply_seconds`` / ``swap_seconds`` / ``staleness_seconds`` histograms
(staleness = batch arrival to epoch publication).

Standing queries: constructed with a ``sub_engine`` (a
:class:`~repro.sub.engine.SubscriptionEngine` attached to the same
updater), the server additionally accepts ``subscribe`` /
``unsubscribe`` and pushes ``notify`` frames over the subscribing
connection as epochs change its results.  Each connection owns one
bounded notification queue (``sub_queue_limit``); when a slow consumer
fills it, further notices for that subscription are *dropped* and a
single ``resync`` frame — carrying the full current result — is
delivered once the queue drains, so a stalled reader costs bounded
memory rather than unbounded buffering.  Subscriptions die with their
connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from repro.cache.store import SemanticResultCache
from repro.core.language import parse_query
from repro.core.runs import RunAnswer
from repro.exceptions import ClusterError, DisksError, LiveUpdateError, QueryError
from repro.live.ops import op_from_record
from repro.obs.events import global_events
from repro.obs.export import JsonlTraceSink
from repro.obs.hotspots import HotSpotSketch, render_hotspots
from repro.obs.prometheus import render_prometheus
from repro.obs.slo import SLOEngine, SLOObjectives
from repro.obs.tail import RetentionPolicy
from repro.obs.trace import TraceContext, Tracer, new_trace_id
from repro.serve import wire
from repro.serve.admission import AdmissionController
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import decode_line, encode_line, render_query

__all__ = ["ServeConfig", "DisksServer", "serve_in_thread"]

_READ_CHUNK = 65536  # bytes per read on a binary connection
_NO_SUB = "this server was started without standing-query support"


def _failure(request_id, error: str, detail: str | None = None, **extra) -> dict:
    """An error reply: ``{"id", "ok": False, "error"[, "detail"], **extra}``."""
    reply = {"id": request_id, "ok": False, "error": error}
    if detail is not None:
        reply["detail"] = detail
    reply.update(extra)
    return reply


@dataclass(frozen=True)
class _CachedResponse(RunAnswer):
    """A cache hit shaped like a cluster response.

    Mirrors the attributes :meth:`DisksServer._finish` reads off a
    :class:`~repro.serve.pipeline.PipelinedResponse`; no dispatch
    happened, so the timing/byte fields are zero and ``cached`` lets
    tests (and the slow-query ring) tell the two apart.
    """

    result_run: array
    fragment_seconds: dict = field(default_factory=dict)
    machine_seconds: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    message_bytes: int = 0
    degraded: bool = False
    spans: tuple = ()
    partials: None = None
    cached: bool = True
    attempt: int = 0


class _Connection:
    """One accepted socket: writer, protocol, sub channel, open queries.

    ``binary`` is fixed at accept time by the first byte on the wire
    (``D`` opens a DSKW binary connection, anything else is NDJSON) and
    decides how :meth:`DisksServer._reply` encodes reply dicts —
    NDJSON lines or JSON frames.  Binary-native replies (ANSWER, ERROR,
    UPDATE_ACK frames) bypass it and go straight to ``_send_raw``.
    Each write is one whole reply, so writes need no lock.

    ``queries`` counts the queries begun and not yet answered; a closing
    connection waits for it to reach zero so their replies still go out.
    """

    __slots__ = ("writer", "binary", "channel", "queries", "idle")

    def __init__(self, writer: asyncio.StreamWriter, binary: bool) -> None:
        self.writer = writer
        self.binary = binary
        self.channel: _SubChannel | None = None
        self.queries = 0
        self.idle: asyncio.Future | None = None

    def query_done(self) -> None:
        self.queries -= 1
        if not self.queries and self.idle is not None and not self.idle.done():
            self.idle.set_result(None)


class _Query:
    """One query between its two halves (admission to reply).

    Nothing here reaches the cluster future: its done-callback holds this
    object, so a reference back would make a cycle that keeps every
    answer alive until a full collection.
    """

    __slots__ = (
        "conn", "request_id", "query", "text", "frames", "batch", "slot",
        "admitted", "arrived", "trace", "ticket", "cluster_id", "timer",
    )

    def __init__(self, conn, request_id, query, text, batch=None, slot=0) -> None:
        self.conn = conn
        self.request_id = request_id
        self.query = query
        self.text = text
        # Binary QUERY/BATCH entries arrive decoded and reply with
        # ANSWER/ERROR frames; the NDJSON op (on either wire) arrives as
        # text and replies with a dict.
        self.frames = query is not None
        self.batch = batch
        self.slot = slot
        self.admitted = False
        self.trace = self.ticket = self.timer = None


class _Batch:
    """A BATCH frame's replies, counted down and sent in one write."""

    __slots__ = ("parts", "remaining")

    def __init__(self, size: int) -> None:
        self.parts: list[bytes | None] = [None] * size
        self.remaining = size


class _SubChannel:
    """One connection's notification path: bounded queue, shed to resync.

    Notices arrive on the *updater's* thread (the engine's sinks run
    inside the epoch-swap callback); frames leave on the server's event
    loop.  The handoff is a plain deque under a threading lock plus a
    ``call_soon_threadsafe`` kick that spawns one drain task at a time.
    When the queue is full the notice is dropped and the subscription
    marked for resync — after the queue drains, one ``resync`` frame
    with the full current result (at a no-earlier epoch) replaces
    everything that was lost.  Clients must treat a ``resync`` as
    authoritative and discard deltas for epochs ≤ its epoch.
    """

    def __init__(self, server: "DisksServer", conn: _Connection, loop, limit: int):
        self._server = server
        self._conn = conn
        self._loop = loop
        self._limit = limit
        self._lock = threading.Lock()
        self._queue: deque[dict] = deque()
        self._resync: set[str] = set()
        self._dropped: dict[str, int] = {}
        self._draining = False
        self._closed = False
        self.subs: set[str] = set()

    def push(self, notice) -> None:
        """Engine sink: enqueue one notice (updater thread)."""
        with self._lock:
            if self._closed:
                return
            if len(self._queue) >= self._limit:
                self._resync.add(notice.sub_id)
                self._dropped[notice.sub_id] = self._dropped.get(notice.sub_id, 0) + 1
                self._server.metrics.increment("sub_dropped")
            else:
                self._queue.append({"push": "notify", **notice.to_dict()})
            schedule = not self._draining
            if schedule:
                self._draining = True
        if schedule:
            try:
                self._loop.call_soon_threadsafe(self._spawn)
            except RuntimeError:  # the loop is shutting down
                pass

    def close(self) -> None:
        """Stop accepting notices (the connection is going away)."""
        with self._lock:
            self._closed = True
            self._queue.clear()
            self._resync.clear()

    def _spawn(self) -> None:
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        while True:
            resync_id: str | None = None
            with self._lock:
                if self._queue:
                    frame = self._queue.popleft()
                elif self._resync:
                    resync_id = self._resync.pop()
                    frame = None
                else:
                    self._draining = False
                    return
            if frame is None:
                assert resync_id is not None
                dropped = self._dropped.pop(resync_id, 0)
                engine = self._server.sub_engine
                try:
                    snapshot = engine.snapshot(resync_id) if engine else None
                except DisksError:
                    continue  # unsubscribed while the resync was pending
                if snapshot is None:
                    continue
                frame = {"push": "resync", "dropped": dropped, **snapshot}
                self._server.metrics.increment("sub_resyncs")
            await self._server._respond(self._conn, frame)


@dataclass(frozen=True)
class ServeConfig:
    """Frontend knobs.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`DisksServer.port` after :meth:`DisksServer.start`).
    ``max_radius`` guards queries against exceeding the deployment's
    built ``maxR`` — pass the manifest value when serving from files.

    Tracing knobs: ``trace_sample_rate`` is the probability a query is
    traced end-to-end (0.0 = off, the default — the hot path then only
    carries ``None`` placeholders); sampled traces land in a bounded
    in-memory store (``trace_capacity``) served by the ``trace`` wire
    op, and optionally stream to a rotating JSONL file (``trace_log``).
    Queries slower than ``slow_query_ms`` always enter the slow-query
    ring (sized by ``slow_ring_size``) — with full spans when sampled,
    as a coarse entry otherwise (spans cannot be collected
    retroactively).

    ``tail_sampling=True`` replaces head sampling with tail-based
    retention (:mod:`repro.obs.tail`): every query is traced, and the
    spans are kept only when the completed query turns out interesting
    — slow (dynamic p99 threshold), errored/degraded, HA-rerouted,
    cache stale-reject, epoch-adjacent, or a small uniform reservoir.
    ``trace_sample_rate`` stays available as the head-sampling
    fallback when tail mode is off.

    ``slo=True`` turns on the burn-rate engine (:mod:`repro.obs.slo`):
    per-op availability/latency objectives (``slo_availability_target``
    / ``slo_latency_ms`` / ``slo_latency_target``), multi-window burn
    in the ``slo`` stats block and ``repro_slo_*`` gauges, and
    ``slo_burn`` events when both alert windows run hot.

    Cache knobs: ``cache=True`` layers the epoch-aware semantic result
    cache (:mod:`repro.cache`) in front of dispatch — both NDJSON and
    binary queries consult it, answers stay bit-identical to cache-off.
    ``cache_max_entries``/``cache_max_bytes`` bound the LRU;
    ``cache_subsumption=False`` degrades it to an exact-key memo table.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 16
    query_timeout_seconds: float = 30.0
    max_radius: float | None = None
    trace_sample_rate: float = 0.0
    slow_query_ms: float = 250.0
    slow_ring_size: int = 64
    trace_log: str | None = None
    trace_capacity: int = 256
    tail_sampling: bool = False
    hotspot_capacity: int = 32
    slo: bool = False
    slo_availability_target: float = 0.999
    slo_latency_ms: float = 250.0
    slo_latency_target: float = 0.99
    sub_queue_limit: int = 256
    max_frame_bytes: int = wire.MAX_FRAME_BYTES
    frame_timeout_seconds: float = 5.0
    cache: bool = False
    cache_max_entries: int = 1024
    cache_max_bytes: int = 32 * 1024 * 1024
    cache_subsumption: bool = True
    # Fault injection: lets the `chaos` op kill workers (HA clusters
    # only).  Off by default — enable for chaos drills, never blindly.
    allow_chaos: bool = False


class DisksServer:
    """The NDJSON query frontend."""

    def __init__(
        self,
        cluster,
        *,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        updater=None,
        sub_engine=None,
        guard=None,
    ) -> None:
        self._cluster = cluster
        self._updater = updater
        self.sub_engine = sub_engine
        # A repro.ha.FrontendGuard (idempotency + rate limits), shared
        # across every frontend of a group.  None = no hardening.
        self.guard = guard
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        self.admission = AdmissionController(self.config.max_inflight)
        self.tracer = Tracer(
            sample_rate=self.config.trace_sample_rate,
            capacity=self.config.trace_capacity,
        )
        self._trace_sink = (
            JsonlTraceSink(self.config.trace_log) if self.config.trace_log else None
        )
        self.retention = (
            RetentionPolicy(slow_ms=self.config.slow_query_ms)
            if self.config.tail_sampling
            else None
        )
        self.hotspots = HotSpotSketch(self.config.hotspot_capacity)
        self.slo = None
        if self.config.slo:
            objectives = SLOObjectives(
                availability_target=self.config.slo_availability_target,
                latency_threshold_ms=self.config.slo_latency_ms,
                latency_target=self.config.slo_latency_target,
            )
            self.slo = SLOEngine(
                {op: objectives for op in ("query", "update", "subscribe")}
            )
        self._last_swap: float | None = None
        if updater is not None and self.retention is not None:
            updater.subscribe_swaps(self._note_swap)
        self.result_cache = None
        if self.config.cache:
            self.result_cache = SemanticResultCache(
                max_entries=self.config.cache_max_entries,
                max_bytes=self.config.cache_max_bytes,
                subsumption=self.config.cache_subsumption,
            )
            self.result_cache.bind(self.metrics)
            if updater is not None:
                self.result_cache.attach(updater)
        self._slow_queries: deque[dict] = deque(
            maxlen=max(1, self.config.slow_ring_size)
        )
        self._server: asyncio.AbstractServer | None = None
        self.host = self.config.host
        self.port: int | None = None
        if updater is not None:
            self.metrics.observe_gauge("epoch", updater.epoch)
        if sub_engine is not None:
            # The engine shares the server's metrics and tracer so its
            # gauges/histograms/spans land in the same stats snapshot.
            sub_engine.bind(metrics=self.metrics, tracer=self.tracer)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "DisksServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ClusterError("the server has already been started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            raise ClusterError("start() the server first")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:  # closed on every way out, a loop shutdown's cancellation too
            await self._serve_connection(reader, writer)
        finally:
            with contextlib.suppress(ConnectionResetError, OSError):
                writer.close()
            # A loop shutdown can cancel the handler while it waits for
            # the close handshake; the socket is already closed, so the
            # cancellation is only noise.
            with contextlib.suppress(
                ConnectionResetError, OSError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # One sniffed byte routes the connection: a DSKW preamble opens
        # the binary protocol, anything else (NDJSON starts with `{`)
        # stays on the line protocol.  No flag, no second port.
        try:
            first = await reader.read(1)
        except (ConnectionResetError, OSError):
            first = b""
        if not first:
            return
        conn = _Connection(writer, binary=(first == wire.MAGIC[:1]))
        conn.channel = _SubChannel(self, conn, self._loop, self.config.sub_queue_limit)
        tasks: set[asyncio.Task] = set()
        try:
            if conn.binary:
                self.metrics.increment("binary_connections")
                await self._binary_loop(first, reader, conn, tasks)
            else:
                self.metrics.increment("ndjson_connections")
                await self._ndjson_loop(first, reader, conn, tasks)
        except (ConnectionResetError, OSError):
            pass
        finally:
            conn.channel.close()
            if conn.channel.subs and self.sub_engine is not None:
                # Subscriptions die with their connection; unregister off
                # the loop (the engine lock may be held by a re-eval).
                for sub_id in list(conn.channel.subs):
                    await asyncio.to_thread(self.sub_engine.unregister, sub_id)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if conn.queries:  # answered or timed out, never abandoned
                conn.idle = self._loop.create_future()
                await conn.idle

    def _spawn(self, job, tasks: set[asyncio.Task]) -> None:
        task = asyncio.create_task(job)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def _ndjson_loop(self, first: bytes, reader, conn: _Connection, tasks) -> None:
        prefix = first if first.strip() else b""
        while True:
            await conn.writer.drain()
            line = await reader.readline()
            if prefix:
                line, prefix = prefix + line, b""
            if not line:
                break
            if line.strip():
                self._handle_line(line, conn, tasks)

    async def _binary_loop(self, first: bytes, reader, conn: _Connection, tasks) -> None:
        """Negotiate, then read chunks and handle frames until EOF or an error.

        A partial preamble or frame must complete within
        ``frame_timeout_seconds`` of its first byte, however the bytes
        trickle in: a watchdog timer, armed when the partial begins,
        then closes the connection (a partial frame first gets an ERROR
        frame, "truncated frame"), never leaving a hung handler.  Waiting
        for the *start* of the next frame is unbounded: an idle
        connection is fine.
        """
        timeout = self.config.frame_timeout_seconds
        watchdog = self._loop.call_later(timeout, self._frame_expired, conn, None)
        try:
            data = first
            while len(data) < 6:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    if not conn.writer.is_closing():  # not the watchdog's close
                        self.metrics.increment("wire_errors")
                    return
                data += chunk
            watchdog.cancel()
            watchdog = None
            try:
                features = wire.decode_preamble(data[:6])
            except wire.WireProtocolError as error:
                self.metrics.increment("wire_errors")
                self._send_raw(conn, wire.encode_error(None, "wire", str(error)))
                return
            self._send_raw(conn, wire.encode_hello(features))
            decoder = wire.FrameDecoder(self.config.max_frame_bytes)
            decoder.feed(data[6:])
            while True:
                handled = False
                try:
                    while (frame := decoder.next_frame()) is not None:
                        self._handle_frame(frame[0], frame[1], conn, tasks)
                        handled = True
                except wire.WireProtocolError as error:
                    self.metrics.increment("wire_errors")
                    self._send_raw(conn, wire.encode_error(None, "wire", str(error)))
                    return
                if watchdog is not None and (handled or not decoder.buffered):
                    watchdog.cancel()  # the partial frame it timed completed
                    watchdog = None
                if watchdog is None and decoder.buffered:
                    watchdog = self._loop.call_later(
                        timeout, self._frame_expired, conn, "truncated frame"
                    )
                await conn.writer.drain()
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    if decoder.buffered and not conn.writer.is_closing():
                        self.metrics.increment("wire_errors")
                        self._send_raw(
                            conn, wire.encode_error(None, "wire", "truncated frame")
                        )
                    return  # clean EOF between frames
                decoder.feed(chunk)
        finally:
            if watchdog is not None:
                watchdog.cancel()

    def _frame_expired(self, conn: _Connection, detail: str | None) -> None:
        """A partial preamble or frame outlived its deadline: close the socket."""
        self.metrics.increment("wire_errors")
        if detail is not None:
            self._send_raw(conn, wire.encode_error(None, "wire", detail))
        conn.writer.close()

    def _handle_frame(self, frame_type: int, payload: bytes, conn, tasks) -> None:
        """Decode and start one binary frame, inline on the read loop.

        Queries begin here (their replies follow from a callback); a
        decode error propagates before any later frame is handled.
        """
        if frame_type == wire.FRAME_QUERY:
            request_id, query = wire.decode_query_payload(payload)
            self._begin(_Query(conn, request_id, query, None))
        elif frame_type == wire.FRAME_BATCH:
            entries = wire.decode_batch(payload)
            batch = _Batch(len(entries))
            for slot, (request_id, query) in enumerate(entries):
                self._begin(_Query(conn, request_id, query, None, batch, slot))
        elif frame_type == wire.FRAME_UPDATE:
            request_id, records, idem_key = wire.decode_update(payload)
            self._spawn(
                self._handle_wire_update(request_id, records, conn, idem_key), tasks
            )
        elif frame_type == wire.FRAME_JSON:
            self._handle_request(wire.decode_json_payload(payload), conn, tasks)
        else:
            raise wire.WireProtocolError(
                f"unexpected frame type {frame_type} from a client"
            )

    def _send_raw(self, conn: _Connection, data: bytes) -> None:
        """Write one whole reply; a closed connection drops it."""
        if not conn.writer.is_closing():
            conn.writer.write(data)

    @staticmethod
    def _encode(conn: _Connection, payload: dict) -> bytes:
        return wire.encode_json_frame(payload) if conn.binary else encode_line(payload)

    def _reply(self, conn: _Connection, payload: dict) -> None:
        self._send_raw(conn, self._encode(conn, payload))

    async def _respond(self, conn: _Connection, payload: dict) -> None:
        """:meth:`_reply`, then wait out backpressure (pushes, admin ops)."""
        self._reply(conn, payload)
        with contextlib.suppress(ConnectionResetError, OSError):
            await conn.writer.drain()

    def _handle_line(self, line: bytes, conn: _Connection, tasks) -> None:
        try:
            request = decode_line(line)
        except ValueError as error:
            self.metrics.increment("bad_requests")
            self._reply(conn, _failure(None, "bad-json", str(error)))
            return
        self._handle_request(request, conn, tasks)

    def _client_key(self, request: dict, conn: _Connection) -> str:
        """The rate-limit bucket key: explicit client id, else peer host."""
        client = request.get("client")
        if isinstance(client, str) and client:
            return client
        peer = conn.writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, tuple) and peer else "unknown"

    def _handle_request(self, request: dict, conn: _Connection, tasks) -> None:
        """Route one request: a query begins inline, other ops run as tasks."""
        request_id = request.get("id")
        op = request.get("op", "query")
        if (
            op in ("query", "update")
            and self.guard is not None
            and not self.guard.allow(self._client_key(request, conn))
        ):
            self.metrics.increment("ha_rate_limited")
            self._reply(conn, _failure(request_id, "rate-limited"))
        elif op == "query":
            self._begin(_Query(conn, request_id, None, request.get("q")))
        else:
            self._spawn(self._dispatch_request(request_id, op, request, conn), tasks)

    async def _dispatch_request(self, request_id, op, request: dict, conn) -> None:
        if op == "stats":
            # Off the loop: collecting cluster-wide coverage-cache
            # counters round-trips the worker pipes behind any queries
            # already queued on them.
            stats = await asyncio.to_thread(self.stats)
            await self._respond(conn, {"id": request_id, "ok": True, "stats": stats})
        elif op == "info":
            await self._respond(
                conn,
                {
                    "id": request_id,
                    "ok": True,
                    "machines": self._cluster.num_machines,
                    "degraded": self._cluster.degraded,
                    "max_radius": self.config.max_radius,
                    "max_inflight": self.admission.limit,
                },
            )
        elif op == "ping":
            await self._respond(conn, {"id": request_id, "ok": True, "pong": True})
        elif op == "epoch":
            await self._respond(
                conn, {"id": request_id, "ok": True, "epoch": self._current_epoch()}
            )
        elif op == "trace":
            await self._respond(conn, self._trace_payload(request_id, request))
        elif op == "metrics":
            self._sync_ha_gauges()
            if self.slo is not None:
                self.slo.sync_gauges(self.metrics)
            text = render_prometheus(self.metrics.exposition_state())
            hotspots = self.hotspots.snapshot()
            if hotspots["evals"]:
                text += render_hotspots(hotspots)
            await self._respond(
                conn, {"id": request_id, "ok": True, "text": text}
            )
        elif op == "update":
            await self._handle_update(request_id, request, conn)
        elif op == "chaos":
            await self._handle_chaos(request_id, request, conn)
        elif op == "subscribe":
            await self._handle_subscribe(request_id, request, conn)
        elif op == "unsubscribe":
            await self._handle_unsubscribe(request_id, request, conn)
        else:
            self.metrics.increment("bad_requests")
            await self._respond(conn, _failure(request_id, "unknown-op", op))

    def _current_epoch(self):
        """The served epoch: from the updater, else the cluster, else None."""
        if self._updater is not None:
            return self._updater.epoch
        return getattr(self._cluster, "current_epoch", None)

    async def _apply_update_records(self, request_id, records) -> dict:
        """Run one update batch; returns the reply dict (not yet sent).

        Shared by the NDJSON ``update`` op and the binary UPDATE frame —
        one admission/metrics/apply path, two encodings of the outcome.
        """
        self.metrics.increment("updates_received")
        if self._updater is None:
            return _failure(
                request_id, "no-live", "this server was started without live-update support"
            )
        if not isinstance(records, list) or not records:
            self.metrics.increment("bad_requests")
            return _failure(
                request_id, "bad-update", "the request needs a non-empty op list under 'ops'"
            )
        try:
            ops = [op_from_record(record) for record in records]
        except LiveUpdateError as error:
            self.metrics.increment("update_errors")
            return _failure(request_id, "bad-update", str(error))
        if not self.admission.try_acquire():
            self.metrics.increment("shed")
            return _failure(request_id, "overloaded")
        arrived = time.perf_counter()
        self.metrics.observe_gauge("inflight", self.admission.depth)
        try:
            # EpochManager.apply serialises writers behind its own lock;
            # to_thread keeps the (possibly rebuild-heavy) apply off the
            # event loop so queries keep flowing while the shadow builds.
            try:
                swap = await asyncio.to_thread(self._updater.apply, ops)
            except LiveUpdateError as error:
                self.metrics.increment("update_errors")
                return _failure(request_id, "bad-update", str(error))
            except ClusterError as error:
                self.metrics.increment("errors")
                return _failure(request_id, "cluster", str(error))
            staleness = time.perf_counter() - arrived
            self.metrics.increment("updates")
            self.metrics.increment("update_ops", by=swap.num_ops)
            self.metrics.increment(
                "segments_published",
                by=sum(ack.get("segments_published", 0) for ack in swap.cluster_acks),
            )
            self.metrics.observe_gauge("epoch", swap.epoch)
            self.metrics.observe("apply_seconds", swap.apply_seconds)
            self.metrics.observe("swap_seconds", swap.swap_seconds)
            self.metrics.observe("staleness_seconds", staleness)
            return {
                "id": request_id,
                "ok": True,
                "epoch": swap.epoch,
                "applied": swap.to_dict(),
                "staleness_ms": staleness * 1000.0,
            }
        finally:
            self.admission.release()
            self.metrics.observe_gauge("inflight", self.admission.depth)

    async def _guarded_update(self, request_id, records, idem_key) -> dict:
        """At-most-once wrapper: the idempotency key gates the apply.

        The first submission with a key owns the apply; duplicates —
        concurrent or later, on this frontend or a sibling sharing the
        guard — get the owner's recorded reply with ``deduped: True``.
        A failed owner clears the key, so a retry re-runs for real.
        """
        if self.guard is None or not idem_key:
            return await self._apply_update_records(request_id, records)
        index = self.guard.idempotency
        while True:
            owner, cached = await asyncio.to_thread(index.begin, idem_key)
            if owner:
                break
            if cached is not None:
                self.metrics.increment("ha_deduped_updates")
                reply = dict(cached)
                reply["id"] = request_id
                reply["deduped"] = True
                return reply
            # The previous owner failed (or the wait timed out): loop to
            # claim the key and run the apply ourselves.
        try:
            reply = await self._apply_update_records(request_id, records)
        except BaseException:
            index.fail(idem_key)
            raise
        if reply.get("ok"):
            index.finish(idem_key, reply)
        else:
            index.fail(idem_key)
        return reply

    async def _handle_update(self, request_id, request: dict, conn: _Connection) -> None:
        started = time.perf_counter()
        reply = await self._guarded_update(
            request_id, request.get("ops"), request.get("idem")
        )
        if self.slo is not None:
            self.slo.record(
                "update", bool(reply.get("ok")), time.perf_counter() - started
            )
        await self._respond(conn, reply)

    async def _handle_chaos(self, request_id, request: dict, conn: _Connection) -> None:
        """Fault injection: kill a worker process (``allow_chaos`` only)."""
        if not self.config.allow_chaos:
            detail = "start the server with allow_chaos to inject faults"
            await self._respond(conn, _failure(request_id, "chaos-disabled", detail))
            return
        kill = request.get("kill")
        kill_worker = getattr(self._cluster, "kill_worker", None)
        if not isinstance(kill, int) or not callable(kill_worker):
            detail = "needs an integer 'kill' and a cluster with kill_worker"
            await self._respond(conn, _failure(request_id, "bad-chaos", detail))
            return
        try:
            was_alive = await asyncio.to_thread(kill_worker, kill)
        except ClusterError as error:
            await self._respond(conn, _failure(request_id, "chaos", str(error)))
            return
        self.metrics.increment("ha_chaos_kills")
        await self._respond(
            conn,
            {"id": request_id, "ok": True, "killed": kill, "was_alive": was_alive},
        )

    async def _handle_wire_update(
        self, request_id: int, records: list, conn: _Connection, idem_key=None
    ) -> None:
        started = time.perf_counter()
        reply = await self._guarded_update(request_id, records, idem_key)
        if self.slo is not None:
            self.slo.record(
                "update", bool(reply.get("ok")), time.perf_counter() - started
            )
        if reply.get("ok"):
            frame = wire.encode_update_ack(
                request_id,
                epoch=reply["epoch"],
                applied=reply["applied"]["num_ops"],
                staleness_ms=reply["staleness_ms"],
            )
        else:
            frame = wire.encode_error(
                request_id, reply["error"], reply.get("detail", "")
            )
        self._send_raw(conn, frame)

    def _parse_query_text(self, request_id, text):
        """Parse + radius-check a wire query; ``(query, None)`` on success,
        ``(None, error_reply)`` otherwise.  Shared by ``query`` and
        ``subscribe``."""
        if not isinstance(text, str):
            self.metrics.increment("bad_requests")
            detail = "the request needs a query string under 'q'"
            return None, _failure(request_id, "bad-request", detail)
        try:
            query = parse_query(text)
        except QueryError as error:
            self.metrics.increment("parse_errors")
            return None, _failure(request_id, "parse", str(error))
        rejection = self._radius_rejection(request_id, query)
        return (None, rejection) if rejection is not None else (query, None)

    def _radius_rejection(self, request_id, query) -> dict | None:
        """The error reply for a query beyond the deployment's maxR, else None."""
        limit = self.config.max_radius
        if limit is None or query.max_radius <= limit:
            return None
        self.metrics.increment("radius_rejections")
        detail = f"radius {query.max_radius:g} exceeds the deployment maxR {limit:g}"
        return _failure(request_id, "radius", detail)

    async def _handle_subscribe(self, request_id, request: dict, conn: _Connection) -> None:
        channel = conn.channel
        self.metrics.increment("subscribes_received")
        if self.sub_engine is None:
            await self._respond(conn, _failure(request_id, "no-sub", _NO_SUB))
            return
        query, rejection = self._parse_query_text(request_id, request.get("q"))
        if rejection is not None:
            await self._respond(conn, rejection)
            return
        sub_id = request.get("sub")
        if sub_id is not None and not isinstance(sub_id, str):
            self.metrics.increment("bad_requests")
            detail = "'sub' must be a string when given"
            await self._respond(conn, _failure(request_id, "bad-subscribe", detail))
            return
        if not self.admission.try_acquire():
            self.metrics.increment("shed")
            if self.slo is not None:
                self.slo.record("subscribe", False, 0.0)
            await self._respond(conn, _failure(request_id, "overloaded"))
            return
        started = time.perf_counter()
        try:
            # Registration materializes the initial result (runs every
            # in-scope fragment task), so it goes off the event loop.
            try:
                subscription = await asyncio.to_thread(
                    self.sub_engine.register,
                    query,
                    sub_id=sub_id,
                    sink=channel.push,
                    scored=bool(request.get("scored", False)),
                )
            except DisksError as error:
                self.metrics.increment("update_errors")
                if self.slo is not None:
                    self.slo.record(
                        "subscribe", False, time.perf_counter() - started
                    )
                await self._respond(conn, _failure(request_id, "bad-subscribe", str(error)))
                return
            channel.subs.add(subscription.sub_id)
            if self.slo is not None:
                self.slo.record("subscribe", True, time.perf_counter() - started)
            await self._respond(
                conn,
                {
                    "id": request_id,
                    "ok": True,
                    "sub": subscription.sub_id,
                    "epoch": subscription.epoch,
                    "scored": subscription.scored,
                    "nodes": sorted(subscription.result),
                },
            )
        finally:
            self.admission.release()

    async def _handle_unsubscribe(self, request_id, request: dict, conn: _Connection) -> None:
        if self.sub_engine is None:
            await self._respond(conn, _failure(request_id, "no-sub", _NO_SUB))
            return
        sub_id = request.get("sub")
        removed = False
        if isinstance(sub_id, str):
            removed = await asyncio.to_thread(self.sub_engine.unregister, sub_id)
            conn.channel.subs.discard(sub_id)
        await self._respond(
            conn, {"id": request_id, "ok": True, "sub": sub_id, "removed": removed}
        )

    def _note_swap(self, _state, _delta, _swap) -> None:
        """Swap subscriber: remember when the last epoch published."""
        self._last_swap = time.monotonic()

    def _seconds_since_swap(self) -> float | None:
        last = self._last_swap
        return None if last is None else time.monotonic() - last

    def _query_failed(self, arrived: float) -> None:
        """SLO + retention accounting for a timed-out/errored query."""
        latency = time.perf_counter() - arrived
        if self.slo is not None:
            self.slo.record("query", False, latency)
        if self.retention is not None:
            # Nothing to retain (the spans never came back), but the
            # error still counts against the category counters.
            self.retention.decide(latency, error=True)

    def _begin(self, ctx: _Query) -> None:
        """First half of a query, on the turn that decoded it.

        Admission, then parse (NDJSON) or the radius check (binary), the
        cache probe and the submit.  A hit or a rejection is answered on
        this turn; a dispatched query arms its timeout timer and
        completes through :meth:`_finish`.  Shared by the NDJSON query op
        and the binary QUERY/BATCH frames, which is what makes the two
        protocol paths answer-identical by construction — and what makes
        the semantic result cache cover both with one probe site.

        Cache interplay: head-sampled traced queries bypass the cache
        (their spans must describe a real dispatch), degraded clusters
        bypass it (partial answers must be neither served from nor
        admitted to it), and a miss dispatches in explain mode so the
        admission carries the per-term distance columns subsumption
        filters on.  Under tail sampling every query is traced, so the
        cache is probed anyway and a miss dispatches traced — the
        admission then carries no partials (exact-key entry only).  The
        epoch recheck lives in :meth:`SemanticResultCache.admit`.
        """
        self.metrics.increment("received")
        ctx.conn.queries += 1
        if not self.admission.try_acquire():
            self.metrics.increment("shed")
            if self.slo is not None:
                self.slo.record("query", False, 0.0)
            self._settle(ctx, _failure(ctx.request_id, "overloaded"))
            return
        ctx.admitted = True
        self.metrics.observe_gauge("inflight", self.admission.depth)
        try:
            self._dispatch(ctx)
        except BaseException:
            if ctx.admitted:  # neither answered nor handed to a callback
                ctx.admitted = False
                self.admission.release()
                ctx.conn.query_done()
            raise

    def _dispatch(self, ctx: _Query) -> None:
        if ctx.frames:
            query, rejection = ctx.query, self._radius_rejection(ctx.request_id, ctx.query)
        else:
            query, rejection = self._parse_query_text(ctx.request_id, ctx.text)
            ctx.query = query
        if rejection is not None:
            self._settle(ctx, rejection)
            return
        ctx.arrived = arrived = time.perf_counter()
        tail = self.retention is not None
        if tail:
            trace = TraceContext(trace_id=new_trace_id())
        else:
            trace = self.tracer.maybe_trace()
        cache = self.result_cache
        ticket = None
        if cache is not None and (tail or trace is None) and not self._cluster.degraded:
            hit, ticket = cache.probe(query)
            if hit is not None:
                latency = time.perf_counter() - arrived
                self.metrics.observe("latency_seconds", latency)
                self.metrics.increment("completed")
                if self.slo is not None:
                    self.slo.record("query", True, latency)
                if tail:
                    # Cache hits feed the latency window (the p99 must
                    # reflect real traffic) but carry no spans to keep.
                    self.retention.decide(latency)
                response = _CachedResponse(result_run=hit.run, wall_seconds=latency)
                self._settle(ctx, (response, None, latency))
                return
        try:
            if trace is not None:
                pending = self._cluster.submit(query, trace=trace)
            elif ticket is not None:
                pending = self._cluster.submit(query, explain=True)
            else:
                pending = self._cluster.submit(query)
        except ClusterError as error:
            self._settle(ctx, self._cluster_failure(ctx, error))
            return
        ctx.trace, ctx.ticket, ctx.cluster_id = trace, ticket, pending.request_id
        loop = self._loop
        ctx.timer = loop.call_later(self.config.query_timeout_seconds, self._expire, ctx)
        pending.future.add_done_callback(partial(self._completed, loop, ctx))

    def _completed(self, loop, ctx: _Query, future) -> None:
        """The future's done-callback (a dispatcher thread): hop to the loop."""
        try:
            loop.call_soon_threadsafe(self._finish, ctx, future)
        except RuntimeError:  # the loop has closed
            pass

    def _expire(self, ctx: _Query) -> None:
        """The timeout timer: forget the query and answer ``timeout``."""
        ctx.timer = None
        self._cluster.forget(ctx.cluster_id)
        self.metrics.increment("timeouts")
        self._query_failed(ctx.arrived)
        self._settle(ctx, _failure(ctx.request_id, "timeout"))

    def _cluster_failure(self, ctx: _Query, error: BaseException) -> dict:
        self._query_failed(ctx.arrived)
        self.metrics.increment("errors")
        return _failure(
            ctx.request_id, "cluster", str(error), degraded=self._cluster.degraded
        )

    def _finish(self, ctx: _Query, future) -> None:
        """Second half: completion bookkeeping, then the reply.

        Feeds completion metrics and busy time, admits to the cache,
        feeds the SLO, hot spots and tail retention, fills the slow ring
        and records the latency histogram.  Dropped when the timeout
        timer already answered.  Tail mode: the reply carries a
        ``trace_id`` only when the retention policy kept the spans — a
        dropped trace never leaks a dangling id to the client.
        """
        if ctx.timer is None:
            return  # timed out: the late reply is dropped
        ctx.timer.cancel()
        ctx.timer = None
        error = future.exception()
        if error is not None:
            self._settle(ctx, self._cluster_failure(ctx, error))
            if not isinstance(error, ClusterError):
                raise error
            return
        response = future.result()
        trace, ticket = ctx.trace, ctx.ticket
        latency = time.perf_counter() - ctx.arrived
        self.metrics.increment("completed")
        for machine_id, seconds in response.machine_seconds.items():
            self.metrics.add_busy(machine_id, seconds)
        cache_stale = False
        if ticket is not None and not response.degraded and not self._cluster.degraded:
            run, partials = response.result_run, response.partials
            cache_stale = self.result_cache.admit_outcome(ticket, run, partials) == "stale"
        degraded = bool(response.degraded or self._cluster.degraded)
        if self.slo is not None:
            self.slo.record("query", True, latency)
        if trace is not None:
            self.hotspots.feed_rows(response.eval_rows)
        slow = latency * 1000.0 >= self.config.slow_query_ms
        if self.retention is not None:
            kept = self.retention.decide(
                latency,
                degraded=degraded,
                attempt=response.attempt,
                cache_stale=cache_stale,
                seconds_since_swap=self._seconds_since_swap(),
            )
            slow = slow or "slow" in kept
            if kept:
                self._finish_trace(
                    trace, self._text(ctx), response, latency, slow, categories=kept
                )
            elif slow:
                self.metrics.increment("slow_queries")
                self._slow_queries.append(
                    self._slow_entry(None, self._text(ctx), response, latency)
                )
            exemplar = trace.trace_id if kept else None
            trace = trace if kept else None
        else:
            exemplar = trace.trace_id if trace is not None else None
            if trace is not None:
                self._finish_trace(trace, self._text(ctx), response, latency, slow)
            elif slow:
                # Unsampled slow query: spans cannot be collected after
                # the fact, so the ring gets a coarse entry instead.
                self.metrics.increment("slow_queries")
                self._slow_queries.append(
                    self._slow_entry(None, self._text(ctx), response, latency)
                )
        self.metrics.observe("latency_seconds", latency, exemplar=exemplar)
        self._settle(ctx, (response, trace, latency))

    @staticmethod
    def _text(ctx: _Query) -> str:
        """The query as text for traces and the slow ring (binary: rendered)."""
        return ctx.text if ctx.text is not None else render_query(ctx.query)

    def _settle(self, ctx: _Query, outcome) -> None:
        """Release admission once, then encode and write (or batch) the reply.

        ``outcome`` is an error reply dict or ``(response, trace, latency)``.
        """
        if ctx.admitted:
            ctx.admitted = False
            self.admission.release()
            self.metrics.observe_gauge("inflight", self.admission.depth)
        conn = ctx.conn
        try:
            data = self._encode_outcome(ctx, outcome)
            batch = ctx.batch
            if batch is None:
                self._send_raw(conn, data)
            else:
                batch.parts[ctx.slot] = data
                batch.remaining -= 1
                if not batch.remaining:
                    self._send_raw(conn, b"".join(batch.parts))
        finally:
            conn.query_done()

    def _encode_outcome(self, ctx: _Query, outcome) -> bytes:
        request_id = ctx.request_id
        if isinstance(outcome, dict):
            if ctx.frames:
                return wire.encode_error(
                    request_id, outcome["error"], outcome.get("detail", "")
                )
            return self._encode(ctx.conn, outcome)
        response, trace, latency = outcome
        degraded = bool(response.degraded or self._cluster.degraded)
        makespan_ms = max(response.machine_seconds.values(), default=0.0) * 1000.0
        if ctx.frames:
            return wire.encode_answer(
                request_id,
                response.result_run,
                degraded=degraded,
                latency_ms=latency * 1000.0,
                wall_ms=response.wall_seconds * 1000.0,
                makespan_ms=makespan_ms,
                message_bytes=response.message_bytes,
            )
        reply = {
            "id": request_id,
            "ok": True,
            "nodes": response.result_run.tolist(),
            "degraded": degraded,
            "timing": {
                "latency_ms": latency * 1000.0,
                "wall_ms": response.wall_seconds * 1000.0,
                "makespan_ms": makespan_ms,
                "message_bytes": response.message_bytes,
            },
        }
        if trace is not None:
            reply["trace_id"] = trace.trace_id
        return self._encode(ctx.conn, reply)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    _STAGE_HISTOGRAMS = {
        "queue-wait": "stage_queue_seconds",
        "eval": "stage_eval_seconds",
        "union": "stage_union_seconds",
        "serialize": "stage_serialize_seconds",
    }

    def _finish_trace(
        self, trace, text, response, latency, slow, categories=()
    ) -> None:
        """Store a retained query's spans; feed stage histograms and sinks."""
        spans = response.spans
        for span in spans:
            histogram = self._STAGE_HISTOGRAMS.get(span.name)
            if histogram is not None and span.end is not None:
                self.metrics.observe(histogram, span.duration_seconds)
        meta = {}
        if categories:
            meta["retained_by"] = list(categories)
        record = self.tracer.record(
            trace.trace_id,
            spans,
            query=text,
            latency_ms=latency * 1000.0,
            slow=slow,
            degraded=bool(response.degraded or self._cluster.degraded),
            **meta,
        )
        if slow:
            self.metrics.increment("slow_queries")
            self._slow_queries.append(
                self._slow_entry(trace.trace_id, text, response, latency)
            )
        if self._trace_sink is not None:
            self._trace_sink.write(record)

    def _slow_entry(self, trace_id, text, response, latency) -> dict:
        # Epoch and degraded/attempt flags stamp even the coarse
        # unsampled entries, so tail retention (and `repro top`) can
        # triage them without the full span tree.
        return {
            "trace_id": trace_id,
            "query": text,
            "latency_ms": latency * 1000.0,
            "wall_ms": response.wall_seconds * 1000.0,
            "degraded": bool(response.degraded),
            "attempt": response.attempt,
            "epoch": self._current_epoch(),
            "wall_time": time.time(),
        }

    def _trace_payload(self, request_id, request: dict) -> dict:
        """The ``trace`` op: recent traces, slow ring, events, counters."""
        trace_id = request.get("trace_id")
        if isinstance(trace_id, str):
            record = self.tracer.get(trace_id)
            if record is None:
                return _failure(request_id, "unknown-trace", trace_id)
            return {"id": request_id, "ok": True, "trace": record}
        n = request.get("n", 8)
        if not isinstance(n, int) or n < 0:
            n = 8
        return {
            "id": request_id,
            "ok": True,
            "sampling": {
                "rate": self.tracer.sample_rate,
                **self.tracer.counts,
            },
            "traces": self.tracer.recent(n),
            "slow": list(self._slow_queries)[-n:],
            "events": global_events().tail(n),
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _ha_block(self) -> dict | None:
        """Replication + guard state, when either is present (duck-typed)."""
        block: dict = {}
        ha_stats = getattr(self._cluster, "ha_stats", None)
        if callable(ha_stats):
            block.update(ha_stats())
        if self.guard is not None:
            block["guard"] = self.guard.stats()
        return block or None

    def _sync_ha_gauges(self) -> None:
        """Mirror replication state into ``repro_ha_*`` gauges."""
        ha_stats = getattr(self._cluster, "ha_stats", None)
        if callable(ha_stats):
            state = ha_stats()
            self.metrics.observe_gauge("ha_machines_alive", state["machines_alive"])
            self.metrics.observe_gauge(
                "ha_replicas_alive_min", state["replicas_alive_min"]
            )
            self.metrics.observe_gauge("ha_reroutes", state["reroutes"])
            self.metrics.observe_gauge("ha_failovers", state["failovers"])
            self.metrics.observe_gauge("ha_restarts", state["restarts"])
        if self.guard is not None:
            guard_stats = self.guard.stats()
            idem = guard_stats.get("idempotency", {})
            self.metrics.observe_gauge("ha_deduped_total", idem.get("deduped", 0))
            limiter = guard_stats.get("rate_limiter")
            if limiter:
                self.metrics.observe_gauge(
                    "ha_rate_limited_total", limiter.get("limited", 0)
                )

    def stats(self) -> dict:
        """The ``stats`` admin payload: metrics + admission + cluster."""
        self._sync_ha_gauges()
        snapshot = self.metrics.snapshot()
        snapshot["admission"] = {
            "depth": self.admission.depth,
            "limit": self.admission.limit,
        }
        snapshot["cluster"] = {
            "machines": self._cluster.num_machines,
            "degraded": self._cluster.degraded,
            "dead_machines": sorted(self._cluster.dead_machines),
        }
        # Duck-typed like the rest of the cluster interface: clusters
        # that aggregate per-runtime coverage-cache counters (hits /
        # misses) surface them here.
        cache_stats = getattr(self._cluster, "coverage_cache_stats", None)
        if callable(cache_stats):
            try:
                snapshot["coverage_cache"] = cache_stats()
            except ClusterError:
                # A dying cluster should not take the stats op with it.
                pass
        if self.result_cache is not None:
            snapshot["result_cache"] = self.result_cache.stats()
        snapshot["tracing"] = {
            "mode": "tail" if self.retention is not None else "head",
            "rate": self.tracer.sample_rate,
            **self.tracer.counts,
            "slow_ring": len(self._slow_queries),
        }
        if self.retention is not None:
            snapshot["tracing"]["retention"] = self.retention.snapshot()
        if self.slo is not None:
            snapshot["slo"] = self.slo.snapshot()
        hotspots = self.hotspots.snapshot()
        if hotspots["evals"]:
            snapshot["hotspots"] = hotspots
        if self.sub_engine is not None:
            snapshot["subscriptions"] = self.sub_engine.stats()
        ha_block = self._ha_block()
        if ha_block is not None:
            snapshot["ha"] = ha_block
        epoch = self._current_epoch()
        if epoch is not None:
            live: dict = {"epoch": epoch}
            if self._updater is not None:
                history = self._updater.history
                live["applied_batches"] = len(history)
                live["applied_ops"] = sum(swap.num_ops for swap in history)
                # The most recent swaps, for per-epoch apply metrics.
                live["recent_swaps"] = [swap.to_dict() for swap in history[-5:]]
            snapshot["live"] = live
        return snapshot


@contextlib.contextmanager
def serve_in_thread(
    cluster,
    config: ServeConfig | None = None,
    metrics: MetricsRegistry | None = None,
    updater=None,
    sub_engine=None,
    guard=None,
) -> Iterator[DisksServer]:
    """Run a :class:`DisksServer` on a background event loop.

    Lets synchronous code (tests, notebooks) stand a server up without
    owning an event loop::

        with serve_in_thread(cluster) as server:
            client = ServeClient(server.host, server.port)
    """
    server = DisksServer(
        cluster,
        config=config,
        metrics=metrics,
        updater=updater,
        sub_engine=sub_engine,
        guard=guard,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # surfaced to the caller below
            failure.append(error)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            leftovers = asyncio.all_tasks(loop)
            for task in leftovers:
                task.cancel()
            if leftovers:
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=_run, name="disks-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise ClusterError("the server failed to start within 10s")
    if failure:
        raise ClusterError(f"the server failed to start: {failure[0]}")
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
