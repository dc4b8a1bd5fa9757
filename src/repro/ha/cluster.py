"""Replica-group cluster: load-aware routing and exact failover.

:class:`repro.serve.PipelinedCluster` broadcasts every query to every
worker and flips into *degraded* mode when a worker dies — answers then
silently miss the dead machine's fragments.  :class:`HACluster` keeps
the same multiplexed-pipe substrate but changes the unit of dispatch
from "the whole query" to "one fragment task":

* every fragment is hosted by ``replication_factor`` workers (the
  chained-declustering layout of
  :class:`repro.dist.replication.ReplicaPlacement` — anti-affine by
  construction);
* the coordinator routes each fragment's task to one alive replica,
  either least-busy (``routing="load"``: outstanding tasks, then
  accumulated busy-seconds, then machine id) or round-robin
  (``routing="rr"``, the baseline);
* a worker death re-dispatches the in-flight tasks it owed to surviving
  replicas — the query still returns the **exact** answer.  Only a
  fragment with *no* alive replica left degrades the answer.

Epoch applies ship each changed fragment to **all** its alive replicas.
Torn-epoch prevention extends the pipelined argument to failover: all
fan-outs (query, apply, and failover re-dispatch) happen under one
coordinator-wide re-entrant ``_fanout_lock``, and every apply fan-out
bumps an ``_apply_seq``.  A query snapshots the seq at its own fan-out;
when a worker dies,

* if the seq is unchanged, no apply has been fanned out since, so
  re-dispatching the missing fragment tasks (still under the fan-out
  lock) puts them after exactly the same set of applies on the
  surviving pipes — same epoch, partial results stay mergeable;
* if the seq moved, the partials may predate the swap, so the whole
  query **restarts** under a new attempt number: partials are
  discarded, placement is recomputed, and replies from the old attempt
  are ignored.

Either way a query observes one epoch on all fragments — never a mix.
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
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess

from repro.core.coverage import sum_cache_stats
from repro.core.executor import execute_fragment_task
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import QClassQuery
from repro.core.runs import merge_runs
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
from repro.dist.replication import ROUTING_POLICIES, ReplicaPlacement
from repro.exceptions import ClusterError
from repro.obs.trace import Span, SpanCollector
from repro.serve.pipeline import PendingApply, PendingQuery, PipelinedResponse
from repro.shm import SharedSegmentStore

__all__ = ["HACluster"]

_DEFAULT_TIMEOUT = 120.0


def _ha_worker_main(connection: Connection, payload: bytes) -> None:
    """Replica worker loop: evaluate the fragment subset each task names.

    The pipelined worker evaluates every hosted fragment per query; here
    a query message carries an explicit fragment-id list (the
    coordinator may route different fragments of one query to different
    replicas), plus an ``attempt`` number echoed back so the coordinator
    can discard replies from restarted queries, plus an optional trace
    wire context — traced tasks piggyback their stage spans on the
    reply, exactly like the pipelined worker.  ``config`` messages set
    a per-task artificial delay — the benchmark's skew knob.
    """
    registry = None
    try:
        mode, data, network_model, compiled = pickle.loads(payload)
        registry, runtimes = build_worker_runtimes(mode, data, compiled)
        hosted = {rt.fragment.fragment_id: rt for rt in runtimes}
        machine_delay = 0.0
        connection.send(("ready", len(runtimes)))
        while True:
            raw = connection.recv_bytes()
            kind, body, *meta = pickle.loads(raw)
            if kind == "stop":
                connection.send(("stopped", None))
                return
            if kind == "config":
                machine_delay = float(body.get("machine_delay", machine_delay))
                continue
            emulate_delivery(network_model, meta[0] if meta else None, len(raw))
            if kind in APPLY_KINDS:
                request_id, epoch, data = body
                try:
                    started = time.perf_counter()
                    runtimes, swapped = apply_epoch(kind, data, registry, runtimes)
                    hosted = {rt.fragment.fragment_id: rt for rt in runtimes}
                    elapsed = time.perf_counter() - started
                    connection.send(
                        ("applied", (request_id, epoch, swapped, elapsed),
                         time.perf_counter())
                    )
                except Exception:
                    connection.send(("error", (request_id, traceback.format_exc())))
                continue
            if kind == "cache_stats":
                request_id = body
                totals = sum_cache_stats(hosted.values())
                connection.send(("stats", (request_id, totals), time.perf_counter()))
                continue
            if kind != "query":  # pragma: no cover - protocol guard
                connection.send(("error", (None, f"unknown message kind {kind!r}")))
                continue
            received = time.perf_counter()
            request_id, attempt, query, fragment_ids, trace_wire = body
            try:
                collector, parent_id = worker_trace_collector(
                    trace_wire, meta[0] if meta else None, received, len(raw)
                )
                started = time.perf_counter()
                reply = []
                for fragment_id in fragment_ids:
                    runtime = hosted.get(fragment_id)
                    if runtime is None:
                        raise ClusterError(
                            f"task names fragment {fragment_id} not hosted here"
                        )
                    if machine_delay > 0.0:
                        time.sleep(machine_delay)
                    result = execute_fragment_task(
                        runtime, query, collector=collector, parent_id=parent_id
                    )
                    reply.append((result.fragment_id, result.run, result.wall_seconds))
                elapsed = time.perf_counter() - started
                spans = None
                if collector is not None:
                    spans = finish_worker_spans(
                        collector, parent_id, (request_id, attempt, reply), elapsed
                    )
                connection.send(
                    ("results", (request_id, attempt, reply, elapsed, spans),
                     time.perf_counter())
                )
            except Exception:
                connection.send(("error", (request_id, traceback.format_exc())))
    except (EOFError, OSError):  # coordinator went away
        return
    finally:
        if registry is not None:
            registry.release_all()


class _InFlightHA:
    """Coordinator-side state for one query across replica tasks."""

    __slots__ = (
        "future",
        "query",
        "attempt",
        "valid_from",  # replies from attempts before this are discarded
        "awaiting",  # fragment_id -> machine the task is routed to
        "apply_seq",
        "started",
        "degraded",
        "runs",  # fragment_id -> that fragment's sorted result run
        "fragment_seconds",
        "machine_seconds",
        "message_bytes",
        "collector",  # SpanCollector when the query is traced, else None
        "root",  # the open "query" span
        "dispatch_spans",  # machine_id -> open dispatch spans
    )

    def __init__(self, query: QClassQuery, awaiting: dict[int, int],
                 apply_seq: int, degraded: bool) -> None:
        self.future: Future[PipelinedResponse] = Future()
        self.query = query
        self.attempt = 0
        self.valid_from = 0
        self.awaiting = awaiting
        self.apply_seq = apply_seq
        self.started = time.perf_counter()
        self.degraded = degraded
        self.runs: dict[int, array] = {}
        self.fragment_seconds: dict[int, float] = {}
        self.machine_seconds: dict[int, float] = {}
        self.message_bytes = 0
        self.collector: SpanCollector | None = None
        self.root: Span | None = None
        self.dispatch_spans: dict[int, list[Span]] = {}


class _InFlightApplyHA:
    """One epoch delta being applied to every replica."""

    __slots__ = ("future", "epoch", "awaiting", "started", "swapped",
                 "message_bytes", "manifests", "acked_machines")

    def __init__(self, epoch: int, awaiting: set[int]) -> None:
        self.future: Future[dict[str, object]] = Future()
        self.epoch = epoch
        self.awaiting = awaiting
        self.started = time.perf_counter()
        self.swapped: set[int] = set()
        self.message_bytes = 0
        self.manifests: dict[int, list] = {}
        self.acked_machines: list[int] = []


class _InFlightStatsHA:
    __slots__ = ("future", "awaiting", "totals")

    def __init__(self, awaiting: set[int]) -> None:
        self.future: Future[dict[str, int]] = Future()
        self.awaiting = awaiting
        self.totals: dict[str, int] = {"hits": 0, "misses": 0, "skipped": 0}


class HACluster:
    """Replica-group worker processes behind a routing coordinator.

    Duck-type compatible with :class:`repro.serve.PipelinedCluster`
    where the serve layer cares (``submit`` / ``execute`` / ``forget`` /
    ``apply_updates`` / ``num_machines`` / ``dead_machines`` /
    ``degraded`` / ``coverage_cache_stats``), plus the HA surface:
    ``kill_worker``, ``ha_stats``, ``routing``.
    """

    def __init__(
        self,
        processes: list[BaseProcess],
        connections: list[Connection],
        placement: ReplicaPlacement,
        network_model: NetworkModel | None = None,
        shm_store: SharedSegmentStore | None = None,
        startup_bytes: list[int] | None = None,
        routing: str = "load",
    ) -> None:
        self._processes = processes
        self._connections = connections
        self._placement = placement
        self._network_model = network_model
        self._shm_store = shm_store
        self.startup_bytes = startup_bytes or []
        self.routing = routing
        self._send_locks = [threading.Lock() for _ in connections]
        # Re-entrant: a fan-out that trips over a broken pipe handles the
        # death (which re-dispatches, i.e. sends) while already holding it.
        self._fanout_lock = threading.RLock()
        self._lock = threading.Lock()
        self._pending: dict[int, _InFlightHA] = {}
        self._pending_applies: dict[int, _InFlightApplyHA] = {}
        self._pending_stats: dict[int, _InFlightStatsHA] = {}
        self._ids = itertools.count()
        self._rr_ids = itertools.count()
        self._dead: set[int] = set()
        self._alive = True
        self._closing = False
        self._dispatchers: list[threading.Thread] = []
        self.current_epoch = 0
        # Bumped under _fanout_lock on every apply fan-out; queries
        # snapshot it to decide reroute-vs-restart on worker death.
        self._apply_seq = 0
        self._outstanding: dict[int, int] = {m: 0 for m in range(len(connections))}
        self._busy: dict[int, float] = {m: 0.0 for m in range(len(connections))}
        self._reroutes = 0
        self._failovers = 0
        self._restarts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        fragments: list[Fragment],
        indexes: list[NPDIndex],
        *,
        num_machines: int,
        replication_factor: int = 2,
        routing: str = "load",
        timeout_seconds: float = _DEFAULT_TIMEOUT,
        network_model: NetworkModel | None = None,
        compiled: bool = True,
        use_shm: bool = False,
        machine_delays: dict[int, float] | None = None,
    ) -> "HACluster":
        """Fork replica-group workers, handshake, start the dispatchers.

        ``machine_delays`` injects an artificial per-task sleep on named
        machines — the skew knob the routing benchmark (and nothing
        else) uses.
        """
        if routing not in ROUTING_POLICIES:
            raise ClusterError(f"unknown routing policy {routing!r}")
        placement = ReplicaPlacement.chained(
            len(fragments), num_machines, replication_factor
        )
        shm_store = SharedSegmentStore() if use_shm else None
        processes, connections, _assignments, startup_bytes = spawn_workers(
            fragments,
            indexes,
            num_machines,
            _ha_worker_main,
            network_model,
            compiled,
            shm_store,
            fragment_assignments=placement.assignments(),
        )
        cluster = cls(
            processes,
            connections,
            placement,
            network_model,
            shm_store,
            startup_bytes,
            routing,
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
        for machine_id, delay in (machine_delays or {}).items():
            if 0 <= machine_id < len(connections) and delay > 0:
                connections[machine_id].send_bytes(
                    pickle.dumps(("config", {"machine_delay": delay}))
                )
        cluster._start_dispatchers()
        return cluster

    def _start_dispatchers(self) -> None:
        for machine_id, connection in enumerate(self._connections):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(machine_id, connection),
                name=f"disks-ha-dispatch-{machine_id}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)

    def __enter__(self) -> "HACluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    @property
    def num_machines(self) -> int:
        return len(self._processes)

    @property
    def num_fragments(self) -> int:
        return self._placement.num_fragments

    @property
    def replication_factor(self) -> int:
        return self._placement.replication_factor

    @property
    def placement(self) -> ReplicaPlacement:
        return self._placement

    @property
    def dead_machines(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._dead)

    @property
    def degraded(self) -> bool:
        """True only once some fragment has lost *all* replicas."""
        with self._lock:
            alive = set(range(len(self._connections))) - self._dead
            return any(
                not any(m in alive for m in machines)
                for machines in self._placement.replicas
            )

    def kill_worker(self, machine_id: int) -> bool:
        """SIGKILL a worker (fault injection). Returns False if already dead."""
        if not (0 <= machine_id < len(self._processes)):
            raise ClusterError(f"no machine {machine_id}")
        with self._lock:
            if machine_id in self._dead:
                return False
        self._processes[machine_id].kill()
        return True

    def ha_stats(self) -> dict[str, object]:
        """Replication state for the ``stats`` op and Prometheus gauges."""
        with self._lock:
            alive = set(range(len(self._connections))) - self._dead
            replicas_alive = [
                sum(1 for m in machines if m in alive)
                for machines in self._placement.replicas
            ]
            return {
                "replication_factor": self._placement.replication_factor,
                "routing": self.routing,
                "machines": len(self._connections),
                "machines_alive": len(alive),
                "dead_machines": sorted(self._dead),
                "replicas_alive_min": min(replicas_alive, default=0),
                "fragments_unservable": sum(1 for n in replicas_alive if n == 0),
                "reroutes": self._reroutes,
                "failovers": self._failovers,
                "restarts": self._restarts,
                "outstanding_tasks": dict(self._outstanding),
                "busy_seconds": {m: round(s, 6) for m, s in self._busy.items()},
            }

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
        while True:
            try:
                raw = connection.recv_bytes()
            except (EOFError, OSError):
                if not self._closing:
                    self._on_worker_death(machine_id)
                return
            kind, body, *meta = pickle.loads(raw)
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
                request_id, epoch, swapped, _elapsed = body
                self._absorb_apply_ack(machine_id, request_id, swapped, len(raw))
                continue
            if kind == "stats":
                request_id, totals = body
                self._absorb_stats(machine_id, request_id, totals)
                continue
            request_id, attempt, reply, elapsed, spans = body
            self._absorb_reply(
                machine_id, request_id, attempt, reply, elapsed, spans, len(raw)
            )

    def _absorb_reply(
        self,
        machine_id: int,
        request_id: int,
        attempt: int,
        reply: list[tuple[int, array, float]],
        elapsed: float,
        spans: list[Span] | None,
        wire_bytes: int,
    ) -> None:
        with self._lock:
            # Load bookkeeping happens even for forgotten/stale replies:
            # the machine really did finish those tasks.
            self._outstanding[machine_id] = max(
                0, self._outstanding.get(machine_id, 0) - len(reply)
            )
            self._busy[machine_id] = self._busy.get(machine_id, 0.0) + elapsed
            inflight = self._pending.get(request_id)
            if inflight is None or attempt < inflight.valid_from:
                return  # timed out, forgotten, or a restarted query's old attempt
            if spans and inflight.collector is not None:
                for span in spans:
                    span.machine_id = machine_id
                inflight.collector.extend(spans)
            for span in inflight.dispatch_spans.pop(machine_id, ()):
                span.finish()
            for fragment_id, nodes, seconds in reply:
                if inflight.awaiting.get(fragment_id) != machine_id:
                    continue  # task was rerouted away; a twin answer is coming
                # Keyed by fragment: a re-answered fragment (reroute)
                # replaces its run, it is never appended twice.
                inflight.runs[fragment_id] = nodes
                inflight.fragment_seconds[fragment_id] = seconds
                del inflight.awaiting[fragment_id]
            inflight.machine_seconds[machine_id] = (
                inflight.machine_seconds.get(machine_id, 0.0) + elapsed
            )
            inflight.message_bytes += wire_bytes
            if inflight.awaiting:
                return
            del self._pending[request_id]
        self._complete_query(inflight)

    def _complete_query(self, inflight: _InFlightHA) -> None:
        spans: tuple[Span, ...] = ()
        if inflight.collector is not None:
            for open_spans in inflight.dispatch_spans.values():
                for span in open_spans:
                    span.finish()
            inflight.dispatch_spans.clear()
            if inflight.root is not None:
                inflight.root.finish()
            spans = tuple(inflight.collector.spans)
        response = PipelinedResponse(
            result_run=merge_runs(inflight.runs.values()),
            fragment_seconds=dict(inflight.fragment_seconds),
            machine_seconds=dict(inflight.machine_seconds),
            wall_seconds=time.perf_counter() - inflight.started,
            message_bytes=inflight.message_bytes,
            degraded=inflight.degraded,
            spans=spans,
            attempt=inflight.attempt,
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
            apply.swapped.update(swapped)
            apply.message_bytes += wire_bytes
            apply.awaiting.discard(machine_id)
            apply.acked_machines.append(machine_id)
            shipped = apply.manifests.get(machine_id)
            done = not apply.awaiting
            if done:
                del self._pending_applies[request_id]
        if shipped is not None and self._shm_store is not None:
            self._shm_store.lease(machine_id, shipped)
        if done:
            self._complete_apply(apply)

    def _complete_apply(self, apply: _InFlightApplyHA) -> None:
        self.current_epoch = max(self.current_epoch, apply.epoch)
        summary = {
            "epoch": apply.epoch,
            "swapped_fragments": sorted(apply.swapped),
            "acked_machines": sorted(apply.acked_machines),
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

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _on_worker_death(self, machine_id: int) -> None:
        """Reroute (or restart) everything the dead worker still owed.

        Runs entirely under ``_fanout_lock`` so no apply fan-out can
        interleave between the reroute decision and the re-dispatch —
        that window is exactly where a torn epoch could sneak in.
        """
        if self._shm_store is not None:
            self._shm_store.release_machine(machine_id)
        with self._fanout_lock:
            dispatches, applies_done, stats_done, completed = self._plan_failover(
                machine_id
            )
            for target, sends in dispatches.items():
                for request_id, attempt, query, fragment_ids, trace_wire in sends:
                    payload = pickle.dumps(
                        ("query",
                         (request_id, attempt, query, fragment_ids, trace_wire),
                         time.perf_counter())
                    )
                    try:
                        with self._send_locks[target]:
                            self._connections[target].send_bytes(payload)
                    except (BrokenPipeError, OSError):
                        self._on_worker_death(target)
                        break
        for apply in applies_done:
            self._complete_apply(apply)
        for pending in stats_done:
            if not pending.future.done():
                pending.future.set_result(dict(pending.totals))
        for inflight in completed:
            self._complete_query(inflight)

    @staticmethod
    def _open_dispatch_span(
        inflight: _InFlightHA, target: int, rerouted: bool
    ) -> tuple[str, str | None] | None:
        """Open a dispatch span for a (re)dispatch; returns its wire context.

        Caller holds ``_lock``.  Returns ``None`` for untraced queries.
        """
        if inflight.collector is None or inflight.root is None:
            return None
        span = inflight.collector.start(
            "dispatch",
            parent_id=inflight.root.span_id,
            machine_id=target,
            attempt=inflight.attempt,
            **({"rerouted": True} if rerouted else {}),
        )
        inflight.dispatch_spans.setdefault(target, []).append(span)
        return (inflight.collector.trace_id, span.span_id)

    def _plan_failover(self, machine_id: int):
        """Under ``_lock``: mark dead, decide reroute/restart per query."""
        dispatches: dict[
            int,
            list[tuple[int, int, QClassQuery, tuple[int, ...], tuple | None]],
        ] = {}
        applies_done: list[_InFlightApplyHA] = []
        stats_done: list[_InFlightStatsHA] = []
        completed: list[_InFlightHA] = []
        with self._lock:
            if machine_id in self._dead:
                return dispatches, applies_done, stats_done, completed
            self._dead.add(machine_id)
            self._failovers += 1
            self._outstanding[machine_id] = 0
            alive = set(range(len(self._connections))) - self._dead
            for request_id, inflight in list(self._pending.items()):
                owed = [
                    fid for fid, m in inflight.awaiting.items() if m == machine_id
                ]
                if not owed:
                    continue
                # The dead machine's dispatch spans will never see a
                # reply; close them so the trace tree stays well-formed.
                for span in inflight.dispatch_spans.pop(machine_id, ()):
                    span.finish()
                if inflight.apply_seq == self._apply_seq:
                    # No apply fanned out since this query's own fan-out:
                    # surviving replicas serve the same epoch, so only the
                    # dead machine's tasks move.  The attempt number still
                    # bumps (``attempt > 0`` marks every failover-touched
                    # query) but ``valid_from`` stays put, so replies from
                    # the original dispatch remain mergeable.
                    inflight.attempt += 1
                    routed = self._route_tasks(owed, alive, inflight.awaiting)
                    self._reroutes += len(routed)
                    for fid in owed:
                        if fid not in routed:
                            # Every replica of this fragment is gone.
                            inflight.degraded = True
                            del inflight.awaiting[fid]
                    by_machine: dict[int, list[int]] = {}
                    for fid, target in routed.items():
                        inflight.awaiting[fid] = target
                        self._outstanding[target] = (
                            self._outstanding.get(target, 0) + 1
                        )
                        by_machine.setdefault(target, []).append(fid)
                    for target, fids in by_machine.items():
                        wire = self._open_dispatch_span(inflight, target, True)
                        dispatches.setdefault(target, []).append(
                            (request_id, inflight.attempt, inflight.query,
                             tuple(fids), wire)
                        )
                else:
                    # An apply raced this query: partials may span epochs.
                    # Restart the whole query under a fresh attempt and
                    # discard replies from before it (``valid_from``).
                    self._restarts += 1
                    inflight.attempt += 1
                    inflight.valid_from = inflight.attempt
                    inflight.apply_seq = self._apply_seq
                    inflight.runs.clear()
                    inflight.fragment_seconds.clear()
                    inflight.degraded = False
                    if inflight.collector is not None:
                        # Partial spans belong to discarded work; keep only
                        # the root so the restarted tree reads cleanly.
                        for open_spans in inflight.dispatch_spans.values():
                            for span in open_spans:
                                span.finish()
                        inflight.dispatch_spans.clear()
                        inflight.collector.spans[:] = (
                            [inflight.root] if inflight.root is not None else []
                        )
                    all_ids = range(self._placement.num_fragments)
                    routed = self._route_tasks(all_ids, alive, None)
                    inflight.awaiting = dict(routed)
                    if len(routed) < self._placement.num_fragments:
                        inflight.degraded = True
                    by_machine = {}
                    for fid, target in routed.items():
                        self._outstanding[target] = (
                            self._outstanding.get(target, 0) + 1
                        )
                        by_machine.setdefault(target, []).append(fid)
                    for target, fids in by_machine.items():
                        wire = self._open_dispatch_span(inflight, target, True)
                        dispatches.setdefault(target, []).append(
                            (request_id, inflight.attempt, inflight.query,
                             tuple(fids), wire)
                        )
                if not inflight.awaiting:
                    del self._pending[request_id]
                    completed.append(inflight)
            # Applies and stats sweeps complete on the survivors.
            for rid in list(self._pending_applies):
                apply = self._pending_applies[rid]
                apply.awaiting.discard(machine_id)
                if not apply.awaiting:
                    del self._pending_applies[rid]
                    applies_done.append(apply)
            for rid in list(self._pending_stats):
                pending = self._pending_stats[rid]
                pending.awaiting.discard(machine_id)
                if not pending.awaiting:
                    del self._pending_stats[rid]
                    stats_done.append(pending)
        return dispatches, applies_done, stats_done, completed

    def _route_tasks(
        self,
        fragment_ids,
        alive: set[int],
        current: dict[int, int] | None,
    ) -> dict[int, int]:
        """Pick an alive replica per fragment; drop unservable fragments.

        Caller holds ``_lock``.  ``current`` (a fragment→machine map of
        tasks that are staying put) contributes to the load picture so a
        reroute doesn't pile onto an already-loaded survivor.
        """
        load: dict[int, float] = {}
        total_busy = sum(self._busy.values()) + 1.0
        for m in alive:
            load[m] = self._outstanding.get(m, 0) + self._busy.get(m, 0.0) / total_busy
        if current:
            for m in current.values():
                if m in load:
                    load[m] += 1.0
        routed: dict[int, int] = {}
        start = next(self._rr_ids)
        for fid in fragment_ids:
            candidates = [m for m in self._placement.machines_of(fid) if m in alive]
            if not candidates:
                continue
            if self.routing == "rr":
                chosen = candidates[(start + fid) % len(candidates)]
            else:
                chosen = min(candidates, key=lambda m: (load[m], m))
            routed[fid] = chosen
            load[chosen] += 1.0
        return routed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def submit(self, query: QClassQuery, *, trace=None) -> PendingQuery:
        """Route one task per fragment to an alive replica; don't block.

        ``trace`` (a :class:`~repro.obs.trace.TraceContext`) opts into
        end-to-end tracing: the coordinator opens the root ``query``
        span and one ``dispatch`` span per routed machine, workers
        piggyback their stage spans on replies, and failover re-dispatch
        opens fresh ``dispatch`` spans tagged with the new attempt —
        the rerouted work shows up on the surviving machine's row.
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        # The whole route-register-send sequence holds _fanout_lock: if a
        # worker death could interleave between registering the inflight
        # and sending its payloads, _plan_failover would re-dispatch the
        # not-yet-sent tasks and a subsequent apply could slip between
        # the two dispatches — the rerouted fragments would evaluate on
        # the old epoch and the original ones on the new (a torn answer
        # the apply_seq guard cannot see, because the seq was equal at
        # kill time).
        sent_bytes = 0
        with self._fanout_lock:
            with self._lock:
                alive = set(range(len(self._connections))) - self._dead
                if not alive:
                    raise ClusterError(
                        "every worker has died; the cluster cannot serve"
                    )
                routed = self._route_tasks(range(self._placement.num_fragments),
                                           alive, None)
                if not routed:
                    raise ClusterError("no fragment has an alive replica")
                request_id = next(self._ids)
                degraded = len(routed) < self._placement.num_fragments
                inflight = _InFlightHA(query, dict(routed), self._apply_seq,
                                       degraded)
                if trace is not None:
                    inflight.collector = SpanCollector(trace.trace_id)
                    inflight.root = inflight.collector.start(
                        "query", parent_id=trace.span_id
                    )
                self._pending[request_id] = inflight
                # Count the tasks as outstanding *before* anything is sent:
                # a fast worker's reply must never decrement first and leave
                # a phantom task behind.
                for machine_id in routed.values():
                    self._outstanding[machine_id] = (
                        self._outstanding.get(machine_id, 0) + 1
                    )
                by_machine: dict[int, list[int]] = {}
                for fid, m in routed.items():
                    by_machine.setdefault(m, []).append(fid)
                wires = {
                    machine_id: self._open_dispatch_span(
                        inflight, machine_id, False
                    )
                    for machine_id in by_machine
                }
            # _apply_seq only moves under _fanout_lock, which we still
            # hold, so the snapshot taken at registration is the seq the
            # payloads below actually ship under.
            for machine_id, fids in by_machine.items():
                payload = pickle.dumps(
                    ("query",
                     (request_id, inflight.attempt, query, tuple(fids),
                      wires[machine_id]),
                     time.perf_counter())
                )
                try:
                    with self._send_locks[machine_id]:
                        self._connections[machine_id].send_bytes(payload)
                    sent_bytes += len(payload)
                except (BrokenPipeError, OSError):
                    self._on_worker_death(machine_id)
        with self._lock:
            inflight.message_bytes += sent_bytes
        return PendingQuery(request_id=request_id, future=inflight.future)

    def execute(
        self,
        query: QClassQuery,
        *,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
        trace=None,
    ) -> PipelinedResponse:
        """Synchronous convenience wrapper over :meth:`submit`."""
        pending = self.submit(query, trace=trace)
        try:
            return pending.future.result(timeout=timeout_seconds)
        except FutureTimeoutError:
            self.forget(pending.request_id)
            raise ClusterError(
                f"query was not answered within {timeout_seconds}s"
            ) from None

    def forget(self, request_id: int) -> None:
        """Drop a pending query (e.g. after a caller-side timeout)."""
        with self._lock:
            self._pending.pop(request_id, None)

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def submit_updates(
        self,
        epoch: int,
        replacements: list[tuple[Fragment, NPDIndex]],
        seed_keys: dict[int, frozenset] | None = None,
    ) -> PendingApply:
        """Fan an epoch delta out to *every* alive replica of each fragment.

        The fan-out lock orders the apply identically against every
        query fan-out on all pipes, and the apply-seq bump makes any
        failover that races this apply restart its queries instead of
        mixing epochs.  ``seed_keys`` scopes a keyword-only delta to
        seed-list patches (:func:`epoch_message`): no segment moves.
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        if epoch <= self.current_epoch:
            raise ClusterError(
                f"epoch must advance: cluster at {self.current_epoch}, got {epoch}"
            )
        changed = [fragment.fragment_id for fragment, _index in replacements]
        with self._lock:
            alive = set(range(len(self._connections))) - self._dead
            involved = sorted(
                m
                for m in alive
                if any(m in self._placement.machines_of(fid) for fid in changed)
            )
            request_id = next(self._ids)
            apply = _InFlightApplyHA(epoch, set(involved))
            self._pending_applies[request_id] = apply
        if not involved:
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
            self._apply_seq += 1
            # A send failure here must NOT trigger failover inline: the
            # seq is already bumped, so _plan_failover would take the
            # restart branch and re-dispatch query tasks mid-loop —
            # machines later in `involved` would see the restarted tasks
            # *before* their apply payload and answer on the old epoch
            # (a torn answer).  Collect the dead and fail them over only
            # once every apply payload is on its pipe.
            failed: list[int] = []
            for machine_id in involved:
                kind, data = epoch_message(
                    self._placement.fragments_of(machine_id), replacements, epoch,
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
                    failed.append(machine_id)
            for machine_id in failed:
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

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def coverage_cache_stats(
        self, *, timeout_seconds: float = 10.0
    ) -> dict[str, int]:
        """Cluster-wide coverage-cache counters over live workers."""
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        with self._lock:
            live = sorted(set(range(len(self._connections))) - self._dead)
            request_id = next(self._ids)
            pending = _InFlightStatsHA(set(live))
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
