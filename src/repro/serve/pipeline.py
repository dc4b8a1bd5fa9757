"""Pipelined worker protocol: many queries in flight per worker.

:class:`~repro.dist.process_cluster.ProcessCluster` speaks a lockstep
protocol — the coordinator broadcasts one query and blocks until every
worker has answered, so a second query cannot even be *sent* while the
first is running.  That is fine for validating the simulation
methodology but hopeless as a serving substrate: the paper's motivation
is query *throughput* under concurrent load (§1), which needs the
workers busy continuously.

This module extends the worker loop with **request-id multiplexing**:

* every query message carries a coordinator-assigned ``request_id`` and
  every reply echoes it back, so replies may arrive in any order and
  any interleaving across queries;
* the coordinator runs one **dispatcher thread per worker** that
  matches replies to the :class:`concurrent.futures.Future` registered
  at submit time, instead of the send-all/recv-all lockstep;
* :meth:`PipelinedCluster.submit` therefore returns immediately — any
  number of queries can be in flight, and each worker drains its input
  pipe back-to-back (total time ``max_m Σ_q τ_qm`` rather than the
  lockstep's ``Σ_q max_m τ_qm``).

Worker-crash semantics: a dispatcher that sees EOF on its pipe marks
the worker dead, fails *only the in-flight queries still awaiting that
worker* with :class:`ClusterError`, and flips the cluster into degraded
mode — subsequent queries run on the surviving workers and carry
``degraded=True`` (their answers miss the dead machine's fragments)
instead of hanging the coordinator.

Live updates (:meth:`PipelinedCluster.apply_updates`) ride the same
multiplexed pipes.  Torn-epoch prevention rests on two properties:

* each pipe is FIFO and each worker handles its messages serially, so
  relative to one worker a query runs entirely before or entirely after
  the epoch swap;
* every fan-out (query or apply) happens under one coordinator-wide
  ``_fanout_lock``, so the *order* of a query relative to an apply is
  the same on every pipe.

Together: a concurrent query observes the old epoch on all machines or
the new epoch on all machines — never a mix.  An apply to a worker that
dies mid-swap completes on the survivors (the dead machine's fragments
are unanswerable anyway — degraded mode).
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
import traceback
from array import array
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess

from repro.core.coverage import sum_cache_stats
from repro.core.executor import execute_fragment_task, execute_fragment_task_explained
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import QClassQuery
from repro.core.runs import RunAnswer, as_run, merge_runs
from repro.dist.network import NetworkModel
from repro.dist.process_cluster import (
    APPLY_KINDS,
    apply_epoch,
    build_worker_runtimes,
    emulate_delivery,
    epoch_message,
    finish_worker_spans,
    segments_shipped,
    spawn_workers,
    worker_trace_collector,
)
from repro.exceptions import ClusterError
from repro.obs.trace import Span, SpanCollector, TraceContext
from repro.serve import wire
from repro.shm import SharedSegmentStore

__all__ = ["PipelinedResponse", "PendingQuery", "PendingApply", "PipelinedCluster"]

_DEFAULT_TIMEOUT = 120.0


def _pipelined_worker_main(connection: Connection, payload: bytes) -> None:
    """Worker loop: one tagged reply per tagged request, errors included.

    Unlike the lockstep worker, a task failure poisons only its own
    request — the loop keeps serving afterwards.  Requests may arrive
    pickled or as binary pipe frames (:func:`repro.serve.wire.loads_pipe`
    sniffs the first byte); a reply is sent in the encoding its request
    arrived in, so the coordinator can migrate one message class at a
    time.  Traced queries and all control traffic stay pickled.
    """
    registry = None
    try:
        mode, data, network_model, compiled = pickle.loads(payload)
        registry, runtimes = build_worker_runtimes(mode, data, compiled)
        connection.send(("ready", len(runtimes)))
        while True:
            raw = connection.recv_bytes()
            binary = raw[0] != 0x80  # pickle protocol ≥ 2 opcode
            kind, body, *meta = wire.loads_pipe(raw)
            if kind == "stop":
                connection.send(("stopped", None))
                return
            if kind in APPLY_KINDS:
                emulate_delivery(network_model, meta[0] if meta else None, len(raw))
                request_id, epoch, data = body
                try:
                    started = time.perf_counter()
                    runtimes, swapped = apply_epoch(kind, data, registry, runtimes)
                    elapsed = time.perf_counter() - started
                    connection.send_bytes(
                        pickle.dumps(
                            (
                                "applied",
                                (request_id, epoch, swapped, elapsed),
                                time.perf_counter(),
                            )
                        )
                    )
                except Exception:
                    connection.send(("error", (request_id, traceback.format_exc())))
                continue
            if kind == "cache_stats":
                # Control round-trip: aggregate this worker's per-runtime
                # coverage-cache counters (serving runtimes run cacheless).
                request_id = body
                totals = sum_cache_stats(runtimes)
                connection.send_bytes(
                    pickle.dumps(("stats", (request_id, totals), time.perf_counter()))
                )
                continue
            if kind == "explain":
                # Like "query", but each fragment also returns the exact
                # per-term distances of its result nodes — the payload the
                # semantic result cache stores for subsumption filtering.
                # Always pickled: the distance dicts don't fit the binary
                # result frame, and explain traffic is cache-miss-rate only.
                emulate_delivery(network_model, meta[0] if meta else None, len(raw))
                request_id, query = body
                try:
                    started = time.perf_counter()
                    explained = [
                        execute_fragment_task_explained(rt, query) for rt in runtimes
                    ]
                    elapsed = time.perf_counter() - started
                    reply = [
                        (result.fragment_id, explanations, result.wall_seconds)
                        for result, explanations in explained
                    ]
                    connection.send_bytes(
                        pickle.dumps(
                            ("results", (request_id, reply, elapsed), time.perf_counter())
                        )
                    )
                except Exception:
                    connection.send(("error", (request_id, traceback.format_exc())))
                continue
            if kind != "query":  # pragma: no cover - protocol guard
                connection.send(("error", (None, f"unknown message kind {kind!r}")))
                continue
            emulate_delivery(network_model, meta[0] if meta else None, len(raw))
            received = time.perf_counter()
            request_id, query, trace_wire = body
            try:
                collector, parent_id = worker_trace_collector(
                    trace_wire, meta[0] if meta else None, received, len(raw)
                )
                started = time.perf_counter()
                results = [
                    execute_fragment_task(
                        rt, query, collector=collector, parent_id=parent_id
                    )
                    for rt in runtimes
                ]
                elapsed = time.perf_counter() - started
                reply = [(r.fragment_id, r.run, r.wall_seconds) for r in results]
                if collector is not None:
                    body_out = (
                        request_id,
                        reply,
                        elapsed,
                        finish_worker_spans(collector, parent_id, reply, elapsed),
                    )
                    connection.send_bytes(
                        pickle.dumps(("results", body_out, time.perf_counter()))
                    )
                elif binary:
                    connection.send_bytes(
                        wire.dumps_pipe_results(
                            request_id, reply, elapsed, time.perf_counter()
                        )
                    )
                else:
                    connection.send_bytes(
                        pickle.dumps(
                            ("results", (request_id, reply, elapsed), time.perf_counter())
                        )
                    )
            except Exception:
                connection.send(("error", (request_id, traceback.format_exc())))
    except (EOFError, OSError):  # coordinator went away
        return
    finally:
        if registry is not None:
            registry.release_all()


@dataclass(frozen=True)
class PipelinedResponse(RunAnswer):
    """Outcome of one pipelined query.

    ``result_run`` is the answer as one sorted run (what the ANSWER
    frame and the NDJSON reply are written from); ``result_nodes`` is
    the same as a frozenset, built on first use.  ``degraded`` marks
    answers computed after a worker death: correct for the surviving
    fragments, silent about the dead machine's.
    """

    result_run: array
    fragment_seconds: dict[int, float]
    machine_seconds: dict[int, float]
    wall_seconds: float
    message_bytes: int
    degraded: bool = False
    spans: tuple[Span, ...] = ()
    # Explain mode only: fragment_id -> {node -> per-term distances}.
    partials: dict[int, dict[int, tuple]] | None = None
    # HA only: >0 when any failover (reroute or restart) touched this query.
    attempt: int = 0


@dataclass(frozen=True)
class PendingQuery:
    """Handle for an in-flight query: its id plus the result future."""

    request_id: int
    future: "Future[PipelinedResponse]"


@dataclass(frozen=True)
class PendingApply:
    """Handle for an in-flight epoch apply: resolves to an ack summary."""

    request_id: int
    epoch: int
    future: "Future[dict[str, object]]"


class _InFlightApply:
    """Coordinator-side state for one epoch delta being applied."""

    __slots__ = (
        "future",
        "epoch",
        "awaiting",
        "started",
        "swapped",
        "message_bytes",
        "manifests",
    )

    def __init__(self, epoch: int, awaiting: set[int]) -> None:
        self.future: Future[dict[str, object]] = Future()
        self.epoch = epoch
        self.awaiting = awaiting
        self.started = time.perf_counter()
        self.swapped: list[int] = []
        self.message_bytes = 0
        # machine_id -> the segment manifests shipped to it (shm mode);
        # an ack moves that machine's store leases to the new epoch.
        self.manifests: dict[int, list] = {}


class _InFlight:
    """Coordinator-side aggregation state for one request id."""

    __slots__ = (
        "future",
        "awaiting",
        "started",
        "degraded",
        "runs",  # fragment_id -> that fragment's sorted result run
        "fragment_seconds",
        "machine_seconds",
        "message_bytes",
        "collector",
        "root",
        "dispatch_spans",
        "partials",
    )

    def __init__(self, awaiting: set[int], degraded: bool) -> None:
        self.future: Future[PipelinedResponse] = Future()
        self.awaiting = awaiting
        self.started = time.perf_counter()
        self.degraded = degraded
        self.runs: dict[int, array] = {}
        self.fragment_seconds: dict[int, float] = {}
        self.machine_seconds: dict[int, float] = {}
        self.message_bytes = 0
        self.collector: SpanCollector | None = None
        self.root: Span | None = None
        self.dispatch_spans: dict[int, Span] = {}
        self.partials: dict[int, dict[int, tuple]] = {}


class _InFlightStats:
    """Coordinator-side aggregation for one coverage-cache stats sweep."""

    __slots__ = ("future", "awaiting", "totals")

    def __init__(self, awaiting: set[int]) -> None:
        self.future: Future[dict[str, int]] = Future()
        self.awaiting = awaiting
        self.totals: dict[str, int] = {"hits": 0, "misses": 0, "skipped": 0}


class PipelinedCluster:
    """Worker processes behind a request-id-multiplexing coordinator.

    Use as a context manager, like :class:`ProcessCluster`::

        with PipelinedCluster.start(fragments, indexes, num_machines=4) as cluster:
            pending = [cluster.submit(q) for q in queries]   # all in flight
            answers = [p.future.result() for p in pending]
    """

    def __init__(
        self,
        processes: list[BaseProcess],
        connections: list[Connection],
        network_model: NetworkModel | None = None,
        fragment_assignments: list[list[int]] | None = None,
        shm_store: SharedSegmentStore | None = None,
        startup_bytes: list[int] | None = None,
        pipe_wire: str = "pickle",
    ) -> None:
        self._processes = processes
        self._connections = connections
        self._network_model = network_model
        self._assignments = fragment_assignments or [[] for _ in processes]
        self._shm_store = shm_store
        self.startup_bytes = startup_bytes or []
        self._pipe_wire = pipe_wire
        self._send_locks = [threading.Lock() for _ in connections]
        # Serialises whole fan-outs (query vs apply) so their relative
        # order is identical on every pipe — the torn-epoch guard.
        self._fanout_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: dict[int, _InFlight] = {}
        self._pending_applies: dict[int, _InFlightApply] = {}
        self._pending_stats: dict[int, _InFlightStats] = {}
        self._ids = itertools.count()
        self._dead: set[int] = set()
        self._alive = True
        self._closing = False
        self._dispatchers: list[threading.Thread] = []
        self.current_epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        fragments: list[Fragment],
        indexes: list[NPDIndex],
        *,
        num_machines: int | None = None,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
        network_model: NetworkModel | None = None,
        compiled: bool = True,
        use_shm: bool = False,
        pipe_wire: str = "binary",
    ) -> "PipelinedCluster":
        """Fork the workers, handshake, then start the dispatchers.

        ``network_model`` makes workers emulate the modelled link by
        sleeping for each message's transfer time (see
        :func:`~repro.dist.process_cluster.spawn_workers`); pipelining
        then overlaps those transfers across in-flight queries, which is
        precisely the dispatch win this class exists for.  ``compiled``
        selects the packed kernel (default) or the dict-based reference
        evaluator in the workers.

        ``use_shm`` hands fragments to workers as shared-memory segment
        manifests (:mod:`repro.shm`) instead of pickled state.
        ``pipe_wire`` selects the encoding of *untraced* query traffic on
        the worker pipes: ``"binary"`` (default — the struct-packed
        frames of :mod:`repro.serve.wire`) or ``"pickle"`` (the legacy
        path, kept for A/B benchmarking).  Workers answer in whichever
        encoding each request arrived in, so the two interoperate.
        """
        if pipe_wire not in ("binary", "pickle"):
            raise ClusterError(f"unknown pipe wire encoding {pipe_wire!r}")
        shm_store = SharedSegmentStore() if use_shm else None
        processes, connections, assignments, startup_bytes = spawn_workers(
            fragments,
            indexes,
            num_machines,
            _pipelined_worker_main,
            network_model,
            compiled,
            shm_store,
        )
        cluster = cls(
            processes,
            connections,
            network_model,
            assignments,
            shm_store,
            startup_bytes,
            pipe_wire,
        )
        for machine_id, connection in enumerate(connections):
            if not connection.poll(timeout_seconds):
                cluster.shutdown()
                raise ClusterError(
                    f"worker {machine_id} did not report ready within {timeout_seconds}s"
                )
            try:
                kind, body = connection.recv()
            except (EOFError, OSError):
                cluster.shutdown()
                raise ClusterError(f"worker {machine_id} died during startup") from None
            if kind != "ready":
                cluster.shutdown()
                raise ClusterError(f"worker {machine_id} failed to start: {body}")
        cluster._start_dispatchers()
        return cluster

    def _start_dispatchers(self) -> None:
        for machine_id, connection in enumerate(self._connections):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(machine_id, connection),
                name=f"disks-dispatch-{machine_id}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)

    def __enter__(self) -> "PipelinedCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    @property
    def num_machines(self) -> int:
        """Worker-process count (dead ones included)."""
        return len(self._processes)

    @property
    def dead_machines(self) -> frozenset[int]:
        """Machine ids whose worker has died."""
        with self._lock:
            return frozenset(self._dead)

    @property
    def degraded(self) -> bool:
        """True once any worker has died; answers are then partial."""
        with self._lock:
            return bool(self._dead)

    def shutdown(self, timeout_seconds: float = 10.0) -> None:
        """Stop workers and dispatchers; fail anything still pending."""
        if not self._alive:
            return
        self._alive = False
        self._closing = True
        with self._lock:
            dead = set(self._dead)
        for machine_id, connection in enumerate(self._connections):
            if machine_id in dead:
                continue
            try:
                with self._send_locks[machine_id]:
                    connection.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=timeout_seconds)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        # Dispatchers leave on the worker's "stopped" reply (or on EOF
        # once it is gone); only then is it safe to close the pipes —
        # close() under a blocked recv_bytes() raises in that thread.
        for thread in self._dispatchers:
            thread.join(timeout=timeout_seconds)
        for connection in self._connections:
            connection.close()
        if self._shm_store is not None:
            self._shm_store.unlink_all()
        with self._lock:
            leftover = list(self._pending.values())
            self._pending.clear()
            leftover_applies = list(self._pending_applies.values())
            self._pending_applies.clear()
            leftover_stats = list(self._pending_stats.values())
            self._pending_stats.clear()
        for inflight in leftover:
            if not inflight.future.done():
                inflight.future.set_exception(
                    ClusterError("the cluster was shut down mid-query")
                )
        for apply in leftover_applies:
            if not apply.future.done():
                apply.future.set_exception(
                    ClusterError("the cluster was shut down mid-apply")
                )
        for pending in leftover_stats:
            if not pending.future.done():
                pending.future.set_exception(
                    ClusterError("the cluster was shut down mid-stats")
                )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self, machine_id: int, connection: Connection) -> None:
        """Match this worker's replies to pending futures, until EOF."""
        while True:
            try:
                raw = connection.recv_bytes()
            except (EOFError, OSError):
                if not self._closing:
                    self._on_worker_death(machine_id)
                return
            kind, body, *meta = wire.loads_pipe(raw)
            if kind == "stopped":
                return
            emulate_delivery(self._network_model, meta[0] if meta else None, len(raw))
            if kind == "error":
                request_id, text = body
                if request_id is not None:
                    self._fail_request(
                        request_id,
                        ClusterError(f"worker {machine_id} failed:\n{text}"),
                    )
                continue
            if kind == "applied":
                request_id, epoch, swapped, elapsed = body
                self._absorb_apply_ack(machine_id, request_id, swapped, len(raw))
                continue
            if kind == "stats":
                request_id, totals = body
                self._absorb_stats(machine_id, request_id, totals)
                continue
            request_id, reply, elapsed, *extra = body
            self._absorb_reply(
                machine_id,
                request_id,
                reply,
                elapsed,
                len(raw),
                extra[0] if extra else None,
            )

    def _absorb_reply(
        self,
        machine_id: int,
        request_id: int,
        reply: list[tuple[int, "array | dict[int, tuple]", float]],
        elapsed: float,
        wire_bytes: int,
        spans: list[Span] | None = None,
    ) -> None:
        with self._lock:
            inflight = self._pending.get(request_id)
            if inflight is None:  # timed out / forgotten — drop the late reply
                return
            inflight.machine_seconds[machine_id] = elapsed
            inflight.message_bytes += wire_bytes
            for fragment_id, nodes, seconds in reply:
                # Explain replies carry {node -> distances} dicts; plain
                # replies carry the fragment's sorted run.  Either way
                # the keys/elements are the fragment's result nodes.
                if isinstance(nodes, dict):
                    inflight.partials[fragment_id] = nodes
                inflight.runs[fragment_id] = as_run(nodes)
                inflight.fragment_seconds[fragment_id] = seconds
            if spans and inflight.collector is not None:
                for span in spans:
                    span.machine_id = machine_id
                inflight.collector.extend(spans)
            dispatch = inflight.dispatch_spans.get(machine_id)
            if dispatch is not None and dispatch.end is None:
                dispatch.finish()
            inflight.awaiting.discard(machine_id)
            if inflight.awaiting:
                return
            del self._pending[request_id]
            if inflight.root is not None and inflight.root.end is None:
                inflight.root.finish()
        response = PipelinedResponse(
            result_run=merge_runs(inflight.runs.values()),
            fragment_seconds=dict(inflight.fragment_seconds),
            machine_seconds=dict(inflight.machine_seconds),
            wall_seconds=time.perf_counter() - inflight.started,
            message_bytes=inflight.message_bytes,
            degraded=inflight.degraded,
            spans=tuple(inflight.collector.spans)
            if inflight.collector is not None
            else (),
            partials=dict(inflight.partials) if inflight.partials else None,
        )
        if not inflight.future.done():
            inflight.future.set_result(response)

    def _absorb_apply_ack(
        self, machine_id: int, request_id: int, swapped: list[int], wire_bytes: int
    ) -> None:
        with self._lock:
            apply = self._pending_applies.get(request_id)
            if apply is None:
                return
            apply.swapped.extend(swapped)
            apply.message_bytes += wire_bytes
            apply.awaiting.discard(machine_id)
            shipped = apply.manifests.get(machine_id)
            done = not apply.awaiting
            if done:
                del self._pending_applies[request_id]
        if shipped is not None and self._shm_store is not None:
            # Serial worker + FIFO pipe: this ack proves no in-flight
            # query still reads the superseded epoch on that machine.
            self._shm_store.lease(machine_id, shipped)
        if done:
            self._complete_apply(apply)

    def _complete_apply(self, apply: _InFlightApply) -> None:
        self.current_epoch = max(self.current_epoch, apply.epoch)
        summary = {
            "epoch": apply.epoch,
            "swapped_fragments": sorted(apply.swapped),
            "segments_published": segments_shipped(apply.manifests),
            "total_message_bytes": apply.message_bytes,
            "wall_seconds": time.perf_counter() - apply.started,
        }
        if not apply.future.done():
            apply.future.set_result(summary)

    def _absorb_stats(
        self, machine_id: int, request_id: int, totals: dict[str, int]
    ) -> None:
        with self._lock:
            pending = self._pending_stats.get(request_id)
            if pending is None:
                return
            for name, value in totals.items():
                pending.totals[name] = pending.totals.get(name, 0) + value
            pending.awaiting.discard(machine_id)
            if pending.awaiting:
                return
            del self._pending_stats[request_id]
        if not pending.future.done():
            pending.future.set_result(dict(pending.totals))

    def _fail_request(self, request_id: int, error: ClusterError) -> None:
        with self._lock:
            inflight = self._pending.pop(request_id, None)
            apply = self._pending_applies.pop(request_id, None)
            stats = self._pending_stats.pop(request_id, None)
        if inflight is not None and not inflight.future.done():
            inflight.future.set_exception(error)
        if apply is not None and not apply.future.done():
            apply.future.set_exception(error)
        if stats is not None and not stats.future.done():
            stats.future.set_exception(error)

    def _on_worker_death(self, machine_id: int) -> None:
        if self._shm_store is not None:
            # The dead worker's mappings died with it; dropping its
            # leases lets superseded segments retire without waiting on
            # an ack that will never come.
            self._shm_store.release_machine(machine_id)
        with self._lock:
            if machine_id in self._dead:
                return
            self._dead.add(machine_id)
            affected = [
                rid
                for rid, inflight in self._pending.items()
                if machine_id in inflight.awaiting
            ]
            # Applies are not failed by a death: the dead machine's
            # fragments are unanswerable regardless, so the epoch
            # completes on the survivors and serving stays degraded-live.
            finished_applies: list[_InFlightApply] = []
            for rid in list(self._pending_applies):
                apply = self._pending_applies[rid]
                apply.awaiting.discard(machine_id)
                if not apply.awaiting:
                    del self._pending_applies[rid]
                    finished_applies.append(apply)
            # Stats sweeps likewise complete on the survivors' counters.
            finished_stats: list[_InFlightStats] = []
            for rid in list(self._pending_stats):
                pending = self._pending_stats[rid]
                pending.awaiting.discard(machine_id)
                if not pending.awaiting:
                    del self._pending_stats[rid]
                    finished_stats.append(pending)
        for request_id in affected:
            self._fail_request(
                request_id,
                ClusterError(
                    f"worker {machine_id} died mid-query; the cluster is degraded"
                ),
            )
        for apply in finished_applies:
            self._complete_apply(apply)
        for pending in finished_stats:
            if not pending.future.done():
                pending.future.set_result(dict(pending.totals))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def submit(
        self,
        query: QClassQuery,
        *,
        trace: TraceContext | None = None,
        explain: bool = False,
    ) -> PendingQuery:
        """Fan the query out to every live worker; return immediately.

        ``trace`` opts the query into span recording: each worker
        piggybacks its ``queue-wait``/``task``/``eval``/``union``/
        ``serialize`` spans on the reply it was sending anyway, and the
        resolved :class:`PipelinedResponse` carries the assembled tree.
        Traced queries pay one pickle per machine (the dispatch span ids
        differ); untraced queries keep the single shared payload.

        ``explain`` asks each worker for the exact per-term distances of
        its result nodes alongside the node sets (the semantic result
        cache's admission payload); the response then carries
        ``partials``.  Result nodes are identical either way.  Ignored
        for traced queries (trace wins).
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        with self._lock:
            live = [
                machine_id
                for machine_id in range(len(self._connections))
                if machine_id not in self._dead
            ]
            if not live:
                raise ClusterError("every worker has died; the cluster cannot serve")
            request_id = next(self._ids)
            inflight = _InFlight(set(live), degraded=bool(self._dead))
            if trace is not None:
                inflight.collector = SpanCollector(trace.trace_id)
                inflight.root = inflight.collector.start(
                    "query", parent_id=trace.span_id
                )
                for machine_id in live:
                    inflight.dispatch_spans[machine_id] = inflight.collector.start(
                        "dispatch",
                        parent_id=inflight.root.span_id,
                        machine_id=machine_id,
                    )
            self._pending[request_id] = inflight
        if trace is None:
            # The untraced fast path: one shared payload, struct-packed
            # when the pipes speak binary (cheaper to encode and ~2-4×
            # smaller than the pickled tuple on typical queries).
            if explain:
                shared = pickle.dumps(
                    ("explain", (request_id, query), time.perf_counter())
                )
            elif self._pipe_wire == "binary":
                shared = wire.dumps_pipe_query(request_id, query, time.perf_counter())
            else:
                shared = pickle.dumps(
                    ("query", (request_id, query, None), time.perf_counter())
                )
            payloads = {machine_id: shared for machine_id in live}
        else:
            payloads = {
                machine_id: pickle.dumps(
                    (
                        "query",
                        (
                            request_id,
                            query,
                            (
                                trace.trace_id,
                                inflight.dispatch_spans[machine_id].span_id,
                            ),
                        ),
                        time.perf_counter(),
                    )
                )
                for machine_id in live
            }
        sent_bytes = 0
        with self._fanout_lock:
            for machine_id in live:
                try:
                    with self._send_locks[machine_id]:
                        self._connections[machine_id].send_bytes(payloads[machine_id])
                    sent_bytes += len(payloads[machine_id])
                except (BrokenPipeError, OSError):
                    self._on_worker_death(machine_id)
        with self._lock:
            inflight.message_bytes += sent_bytes
        return PendingQuery(request_id=request_id, future=inflight.future)

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def submit_updates(
        self,
        epoch: int,
        replacements: list[tuple[Fragment, NPDIndex]],
        seed_keys: dict[int, frozenset] | None = None,
    ) -> PendingApply:
        """Fan an epoch delta out to the owning live workers; no blocking.

        Queries already in every pipe run on the old epoch; queries
        submitted after this call run on the new one (the fan-out lock
        plus per-pipe FIFO make that ordering identical on all
        machines).  The returned future resolves once every involved
        live worker has swapped — or, if one dies mid-apply, once the
        survivors have.  ``seed_keys`` scopes a keyword-only delta:
        shared-memory workers are then sent seed-list patches and no
        segment is packed, leased or retired (:func:`epoch_message`).
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        if epoch <= self.current_epoch:
            raise ClusterError(
                f"epoch must advance: cluster at {self.current_epoch}, got {epoch}"
            )
        with self._lock:
            involved = [
                machine_id
                for machine_id in range(len(self._connections))
                if machine_id not in self._dead
                and any(
                    fragment.fragment_id in self._assignments[machine_id]
                    for fragment, _index in replacements
                )
            ]
            request_id = next(self._ids)
            apply = _InFlightApply(epoch, set(involved))
            self._pending_applies[request_id] = apply
        if not involved:
            # Nothing to ship (all changed fragments on dead machines, or
            # an empty delta): publish the epoch immediately.
            with self._lock:
                self._pending_applies.pop(request_id, None)
            self._complete_apply(apply)
            return PendingApply(request_id=request_id, epoch=epoch, future=apply.future)
        if self._shm_store is not None and seed_keys is None:
            # Pack each changed fragment once, ahead of the fan-out lock.
            for fragment, index in replacements:
                self._shm_store.publish(fragment, index, epoch=epoch)
        sent_bytes = 0
        with self._fanout_lock:
            for machine_id in involved:
                kind, data = epoch_message(
                    self._assignments[machine_id], replacements, epoch,
                    self._shm_store, seed_keys,
                )
                if kind == "apply_shm":
                    apply.manifests[machine_id] = data
                payload = pickle.dumps(
                    (kind, (request_id, epoch, data), time.perf_counter())
                )
                try:
                    with self._send_locks[machine_id]:
                        self._connections[machine_id].send_bytes(payload)
                    sent_bytes += len(payload)
                except (BrokenPipeError, OSError):
                    self._on_worker_death(machine_id)
        with self._lock:
            apply.message_bytes += sent_bytes
        return PendingApply(request_id=request_id, epoch=epoch, future=apply.future)

    def apply_updates(
        self,
        epoch: int,
        replacements: list[tuple[Fragment, NPDIndex]],
        seed_keys: dict[int, frozenset] | None = None,
        *,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
    ) -> dict[str, object]:
        """Synchronous convenience wrapper over :meth:`submit_updates`."""
        pending = self.submit_updates(epoch, replacements, seed_keys)
        try:
            return pending.future.result(timeout=timeout_seconds)
        except FutureTimeoutError:
            with self._lock:
                self._pending_applies.pop(pending.request_id, None)
            raise ClusterError(
                f"epoch {epoch} was not applied within {timeout_seconds}s"
            ) from None

    def forget(self, request_id: int) -> None:
        """Drop a pending query (e.g. after a caller-side timeout)."""
        with self._lock:
            self._pending.pop(request_id, None)

    def coverage_cache_stats(
        self, *, timeout_seconds: float = 10.0
    ) -> dict[str, int]:
        """Cluster-wide coverage-cache counters, summed over live workers.

        Same shape as :meth:`SimulatedCluster.coverage_cache_stats`, so
        the serve layer's ``stats`` op surfaces either cluster kind
        identically.  Rides the multiplexed pipes as a control
        round-trip; dead workers are skipped (their counters died with
        them), and a worker dying mid-sweep completes the sweep on the
        survivors.
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        with self._lock:
            live = [
                machine_id
                for machine_id in range(len(self._connections))
                if machine_id not in self._dead
            ]
            request_id = next(self._ids)
            pending = _InFlightStats(set(live))
            if live:
                self._pending_stats[request_id] = pending
        if not live:
            return dict(pending.totals)
        payload = pickle.dumps(("cache_stats", request_id, time.perf_counter()))
        with self._fanout_lock:
            for machine_id in live:
                try:
                    with self._send_locks[machine_id]:
                        self._connections[machine_id].send_bytes(payload)
                except (BrokenPipeError, OSError):
                    self._on_worker_death(machine_id)
        try:
            return pending.future.result(timeout=timeout_seconds)
        except FutureTimeoutError:
            with self._lock:
                self._pending_stats.pop(request_id, None)
            raise ClusterError(
                f"coverage cache stats were not collected within {timeout_seconds}s"
            ) from None

    def execute(
        self,
        query: QClassQuery,
        *,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
        trace: TraceContext | None = None,
        explain: bool = False,
    ) -> PipelinedResponse:
        """Synchronous convenience wrapper over :meth:`submit`."""
        pending = self.submit(query, trace=trace, explain=explain)
        try:
            return pending.future.result(timeout=timeout_seconds)
        except FutureTimeoutError:
            self.forget(pending.request_id)
            raise ClusterError(
                f"query was not answered within {timeout_seconds}s"
            ) from None
