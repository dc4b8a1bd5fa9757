"""The process-cluster core: one worker handler and one coordinator.

Persistent worker processes each hold their fragment runtimes and serve
queries over pipes, concurrently.  It demonstrates that the
share-nothing design really is share-nothing — each worker process owns
nothing but its fragments and indexes, and the only channels in the
topology connect workers to the coordinator (§4, Lemma 1).

* :class:`WorkerHandler` is the one worker: its state plus
  ``handle(frame) -> reply frame``.  Every query message names
  ``(request_id, query, trace_wire, attempt, fragment_ids)`` (empty
  ``fragment_ids`` = every hosted fragment) and every reply echoes the
  request id, so replies may arrive in any order; a failing task poisons
  only its own request.  The message table is in
  ``docs/ARCHITECTURE.md``.  It has two transports: :func:`worker_main`
  runs it in a forked process behind a pipe, and
  :class:`~repro.dist.cluster.SimulatedCluster` calls it in process
  for the paper's experiments, pricing the same frames on a modelled
  link.
* :class:`ProcessClusterCore` is the coordinator: fork + ready
  handshake, one dispatcher thread per worker matching replies to the
  :class:`~concurrent.futures.Future` registered at submit time, epoch
  apply fan-out with shared-memory leases, stats sweeps and shutdown.

A subclass decides only what differs between deployments: which worker
each fragment task goes to (:meth:`ProcessClusterCore._route`), what a
reply teaches it about load (:meth:`ProcessClusterCore._note_reply`) and
what happens to a query whose worker died
(:meth:`ProcessClusterCore._reassign`).
:class:`repro.serve.PipelinedCluster` broadcasts and degrades;
:class:`repro.ha.HACluster` routes per fragment and fails over.

Torn-epoch prevention rests on two properties.  Each pipe is FIFO and
each worker handles its messages serially, so relative to one worker a
query runs entirely before or entirely after an epoch swap.  Every
fan-out (query, apply, failover re-dispatch) happens under one
coordinator-wide ``_fanout_lock``, so the *order* of a query relative
to an apply is the same on every pipe.  Together: a query observes the
old epoch on all machines or the new epoch on all machines.
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
from multiprocessing import Pipe, Process, get_context
from multiprocessing.connection import Connection

from repro.core.coverage import CacheStats, FragmentRuntime, sum_cache_stats
from repro.core.executor import execute_fragment_task, execute_fragment_task_explained
from repro.core.fragment import Fragment
from repro.core.kernel import FragmentKernel
from repro.core.npd import NPDIndex
from repro.core.queries import KeywordSource, NodeSource, QClassQuery
from repro.core.runs import RunAnswer, as_run, merge_runs
from repro.dist.network import NetworkModel
from repro.exceptions import ClusterError
from repro.obs.trace import Span, SpanCollector, TraceContext
from repro.shm import SharedSegmentStore, ShmWorkerRuntimes

__all__ = [
    "APPLY_KINDS",
    "TERM_CACHE_ENTRIES",
    "PipelinedResponse",
    "PendingQuery",
    "PendingApply",
    "ProcessClusterCore",
    "WorkerHandler",
    "worker_main",
    "spawn_workers",
    "build_worker_runtimes",
    "apply_epoch",
    "epoch_message",
    "query_frame",
    "emulate_delivery",
]

_DEFAULT_TIMEOUT = 120.0
APPLY_KINDS = ("apply_shm", "apply_seeds", "apply")
# Coverage-cache entries per hosted fragment on a serving worker.  An
# entry is one term's membership mask (at most ⌈n/8⌉ bytes), never a
# distance list, so a full cache costs about 256 × (n/8 + 100) bytes.
TERM_CACHE_ENTRIES = 256


def spawn_workers(
    fragments: list[Fragment],
    indexes: list[NPDIndex],
    num_machines: int | None,
    network_model: NetworkModel | None = None,
    compiled: bool = True,
    shm_store=None,
    fragment_assignments: list[list[int]] | None = None,
) -> tuple[list[Process], list[Connection], list[list[int]], list[int]]:
    """Fork one :func:`worker_main` process per machine.

    Fragments are assigned round-robin unless ``fragment_assignments``
    gives an explicit machine → fragment-id mapping (one list per
    machine, ids may repeat across machines — how the HA tier forks
    replica groups; ``num_machines`` is then ignored).  Returns the
    processes, the coordinator ends of their pipes, the fragment ids
    each machine hosts, and each machine's startup payload size in bytes
    (what actually crossed the pipe at fork).

    ``shm_store`` (a :class:`repro.shm.SharedSegmentStore`) switches the
    startup hand-off to the zero-copy plane: each fragment's compiled
    kernel is packed into a shared-memory segment on the coordinator and
    the worker receives only the O(1)-byte manifests; a fragment hosted
    by several machines is published once.  Requires ``compiled``.

    ``network_model`` turns the analytic interconnect model into *wall
    clock*: every message carries its send timestamp, and the receiving
    end sleeps until the modelled delivery time ``sent_at + latency +
    bytes/bandwidth`` (an uncongested link — latency is propagation
    delay, so concurrent transfers overlap; only the bandwidth term
    occupies the wire).  Pipes on one host are orders of magnitude
    faster than the paper's 100 Mb switch, so without this the
    coordinator↔machine round trips the paper charges for are invisible.
    ``None`` (the default) adds nothing.
    """
    if len(fragments) != len(indexes):
        raise ClusterError("fragments and indexes must align")
    if not fragments:
        raise ClusterError("a cluster needs at least one fragment")
    if shm_store is not None and not compiled:
        raise ClusterError(
            "shared-memory workers run packed kernels; compiled=False needs "
            "the pickled hand-off"
        )
    if fragment_assignments is not None:
        by_id = {
            fragment.fragment_id: (fragment, index)
            for fragment, index in zip(fragments, indexes)
        }
        unknown = {
            fid for hosted in fragment_assignments for fid in hosted
        } - set(by_id)
        if unknown:
            raise ClusterError(f"assignment names unknown fragments {sorted(unknown)}")
        assignments: list[list[tuple[Fragment, NPDIndex]]] = [
            [by_id[fid] for fid in hosted] for hosted in fragment_assignments
        ]
    else:
        if num_machines is None:
            num_machines = len(fragments)
        num_machines = max(1, min(num_machines, len(fragments)))
        assignments = [[] for _ in range(num_machines)]
        for i, pair in enumerate(zip(fragments, indexes)):
            assignments[i % num_machines].append(pair)

    context = get_context("fork")
    processes: list[Process] = []
    connections: list[Connection] = []
    startup_bytes: list[int] = []
    for machine_id, pairs in enumerate(assignments):
        if shm_store is not None:
            manifests = [
                shm_store.publish(fragment, index, epoch=0)
                for fragment, index in pairs
            ]
            shm_store.lease(machine_id, manifests)
            payload = pickle.dumps(("shm", manifests, network_model, compiled))
        else:
            payload = pickle.dumps(("pickle", pairs, network_model, compiled))
        startup_bytes.append(len(payload))
        parent_end, child_end = Pipe()
        process = context.Process(
            target=worker_main,
            args=(child_end, payload),
            name=f"disks-worker-{machine_id}",
            daemon=True,
        )
        process.start()
        child_end.close()
        processes.append(process)
        connections.append(parent_end)
    hosted = [[fragment.fragment_id for fragment, _index in pairs] for pairs in assignments]
    return processes, connections, hosted, startup_bytes


def emulate_delivery(
    network_model: NetworkModel | None, sent_at: float | None, num_bytes: int
) -> None:
    """Sleep until a message's modelled delivery time.

    ``sent_at`` is the sender's ``time.perf_counter()`` — system-wide
    monotonic on Linux, so it is comparable across the forked worker
    processes.  A message that has already "arrived" (the receiver was
    busy past its delivery time) costs nothing, which is exactly how
    propagation delay pipelines on a real link.
    """
    if network_model is None or sent_at is None:
        return
    delay = sent_at + network_model.transfer_seconds(num_bytes) - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def build_worker_runtimes(
    mode: str, data, compiled: bool, cache_capacity: int = TERM_CACHE_ENTRIES
):
    """Materialise a worker's runtimes from either startup hand-off.

    ``("pickle", pairs)`` compiles kernels from the shipped fragments —
    the scratch arrays live where the queries run and never cross a
    pipe.  ``("shm", manifests)`` attaches the coordinator-packed
    shared-memory segments instead: nothing but the manifests crossed
    the pipe, and the flat arrays are mapped, not copied.  Returns
    ``(registry, runtimes)`` — the registry is ``None`` in pickle mode
    and the attach point for ``apply_shm`` epoch swaps otherwise.

    Either way each runtime keeps a coverage cache of ``cache_capacity``
    term masks (serving workers: :data:`TERM_CACHE_ENTRIES`): the §6
    query stream repeats popular ``(keyword, radius)`` terms, and a hit
    replaces the term's bounded search with a dict lookup.
    """
    if mode == "shm":
        registry = ShmWorkerRuntimes(cache_capacity)
        registry.attach(data)
        return registry, registry.runtimes()
    if mode != "pickle":
        raise ClusterError(f"unknown worker startup mode {mode!r}")
    runtimes = [
        FragmentRuntime(fragment, index, cache_capacity=cache_capacity, compiled=compiled)
        for fragment, index in data
    ]
    return None, runtimes


def apply_epoch(kind: str, data, registry, runtimes: list) -> tuple[list, list[int]]:
    """A worker's epoch swap, whichever form was shipped: ``(runtimes, swapped)``.

    ``apply_shm`` attaches freshly published segments, ``apply_seeds``
    overwrites the named seed lists of the attached kernels in place
    (``{fragment_id: patch}``, see ``FragmentKernel.seed_patch``), and
    ``apply`` refreshes pickled runtimes from ``(fragment, index)`` pairs.
    Runs between two queries of a serial worker, so each query sees one
    epoch.

    Coverage caches follow the seed lists: a patch drops exactly the
    entries of the sources it rewrites — ``KeywordSource`` per keyword
    key, ``NodeSource`` per DL-node key — since a cached mask is a pure
    function of the kernel's seed lists and CSR.  An attached segment is
    a new runtime and a refreshed one drops its cache, so both start
    empty.
    """
    if kind == "apply_shm":
        swapped = registry.attach(data)
        return registry.runtimes(), swapped
    hosted = {rt.fragment.fragment_id: rt for rt in runtimes}
    swapped = []
    if kind == "apply_seeds":
        for fragment_id, patch in data.items():
            runtime = hosted[fragment_id]
            runtime.kernel.apply_seed_patch(patch)
            runtime.coverage_cache.discard(
                KeywordSource(key) if isinstance(key, str) else NodeSource(key) for key in patch
            )
            swapped.append(fragment_id)
        return runtimes, swapped
    for fragment, index in data:
        runtime = hosted.get(fragment.fragment_id)
        if runtime is not None:
            runtime.refresh(fragment, index)
            swapped.append(fragment.fragment_id)
    return runtimes, swapped


def query_frame(
    request_id: int,
    query: QClassQuery,
    trace_wire: tuple[str, str] | None = None,
    attempt: int = 0,
    fragment_ids: tuple[int, ...] = (),
    explain: bool = False,
) -> bytes:
    """The task frame a coordinator sends a worker for one query.

    Untraced queries travel as binary pipe frames; traced and explain
    queries are pickled (spans and distance columns ride their replies).
    """
    # Bound here, not at import: repro.serve imports this module.
    from repro.serve.wire import dumps_pipe_query

    sent_at = time.perf_counter()
    if trace_wire is None and not explain:
        return dumps_pipe_query(request_id, query, sent_at, attempt, fragment_ids)
    kind = "explain" if explain else "query"
    body = (request_id, query, trace_wire, attempt, fragment_ids)
    return pickle.dumps((kind, body, sent_at))


def epoch_message(hosted, replacements, epoch: int, shm_store, seed_keys=None):
    """What one machine is shipped for an epoch: ``(kind, data)``.

    Shared-memory workers keep their kernels across epochs, so a delta
    scoped by ``seed_keys`` (keyword-only, see ``EpochDelta``) costs them
    just the recompiled seed lists; without a scope they get manifests of
    freshly published segments (``publish`` is idempotent per
    ``(fragment, epoch)``, so callers may pack ahead of their send lock).
    Pickled workers always need the new ``(fragment, index)`` pairs.
    """
    mine = [pair for pair in replacements if pair[0].fragment_id in hosted]
    if shm_store is None:
        return "apply", mine
    if seed_keys is not None:
        return "apply_seeds", {
            f.fragment_id: FragmentKernel.seed_patch(f, i, seed_keys[f.fragment_id])
            for f, i in mine
        }
    return "apply_shm", [shm_store.publish(f, i, epoch=epoch) for f, i in mine]


# ----------------------------------------------------------------------
# The worker
# ----------------------------------------------------------------------
def _select(hosted: dict, runtimes: list, fragment_ids) -> list:
    """The runtimes a task names; empty ``fragment_ids`` means all."""
    if not fragment_ids:
        return runtimes
    missing = [fid for fid in fragment_ids if fid not in hosted]
    if missing:
        raise ClusterError(f"task names fragments {missing} not hosted here")
    return [hosted[fid] for fid in fragment_ids]


def _finish_spans(
    collector: SpanCollector, parent_id: str | None, reply: list, elapsed: float
) -> list[Span]:
    """Measure reply serialisation, then return the spans to piggyback.

    The serialize span must itself travel inside the reply, so the
    reply body is pickled once as a measured probe and the final
    message (with spans attached) is pickled by the caller — the double
    pickle only happens on traced queries.
    """
    started = time.perf_counter()
    probe = pickle.dumps(("results", (reply, elapsed), 0.0))
    ended = time.perf_counter()
    collector.record("serialize", started, ended, parent_id=parent_id, bytes=len(probe))
    return collector.spans


class WorkerHandler:
    """One worker's state and its per-message body.

    Owns the hosted ``runtimes`` (and ``hosted``, the same by fragment
    id), the shared-memory ``registry`` (``None`` for pickled runtimes)
    and the ``machine_delay`` skew knob.  :meth:`handle` takes one
    encoded pipe frame and returns the encoded reply, or ``None`` for
    unanswered kinds.  :func:`worker_main` is recv → handle → send over
    a pipe; :class:`~repro.dist.cluster.SimulatedCluster` calls the same
    method in process.  Message kinds:

    * ``query`` / ``explain`` — ``(request_id, query, trace_wire,
      attempt, fragment_ids)``; the reply is ``results`` with one
      ``(fragment_id, nodes, seconds)`` entry per named fragment.  An
      untraced ``query`` may arrive as a binary pipe frame and is
      answered with one; explain replies carry ``(run, per-term
      distance columns)`` partials instead of runs, traced replies
      piggyback the worker's stage spans.
    * :data:`APPLY_KINDS` — ``(request_id, epoch, data)``, answered with
      ``applied``; ``cache_stats`` — ``(request_id,)``, answered with
      ``stats``; ``config`` — ``{"machine_delay": seconds}`` slept
      before every fragment task (a skew knob), no reply; ``stop``,
      answered with ``stopped``, after which :attr:`stopped` is set.

    A failing message is answered with ``("error", (request_id,
    traceback))`` and the handler keeps serving.
    """

    def __init__(
        self, registry, runtimes: list, network_model: NetworkModel | None = None
    ) -> None:
        # Bound here, not at import: repro.serve imports this module.
        from repro.serve.wire import dumps_pipe_results, loads_pipe

        self._dumps_pipe_results = dumps_pipe_results
        self._loads_pipe = loads_pipe
        self.registry = registry
        self.runtimes = runtimes
        self.hosted = {rt.fragment.fragment_id: rt for rt in runtimes}
        self.network_model = network_model
        self.machine_delay = 0.0
        self.stopped = False

    def handle(self, raw: bytes, tasks: list | None = None) -> bytes | None:
        """Answer one pipe frame; ``tasks`` collects the fragment task results."""
        kind, body, *meta = self._loads_pipe(raw)
        if kind == "stop":
            self.stopped = True
            return pickle.dumps(("stopped", None))
        if kind == "config":
            self.machine_delay = float(body.get("machine_delay", self.machine_delay))
            return None
        sent_at = meta[0] if meta else None
        emulate_delivery(self.network_model, sent_at, len(raw))
        received = time.perf_counter()
        request_id = None
        try:
            request_id = body[0]
            if kind in APPLY_KINDS:
                _request_id, epoch, data = body
                self.runtimes, swapped = apply_epoch(kind, data, self.registry, self.runtimes)
                self.hosted = {rt.fragment.fragment_id: rt for rt in self.runtimes}
                elapsed = time.perf_counter() - received
                out = ("applied", (request_id, epoch, swapped, elapsed))
            elif kind == "cache_stats":
                out = ("stats", (request_id, sum_cache_stats(self.runtimes)))
            elif kind in ("query", "explain"):
                _request_id, query, trace_wire, *target = body
                attempt, fragment_ids = target or (0, ())
                selected = _select(self.hosted, self.runtimes, fragment_ids)
                collector = parent_id = None
                if trace_wire is not None:
                    collector = SpanCollector(trace_wire[0])
                    parent_id = trace_wire[1]
                    if sent_at is not None:
                        # Pipe transit, the emulated link and the
                        # time spent behind earlier messages.
                        collector.record(
                            "queue-wait", sent_at, received,
                            parent_id=parent_id, bytes=len(raw),
                        )
                started = time.perf_counter()
                reply = []
                for runtime in selected:
                    if self.machine_delay > 0.0:
                        time.sleep(self.machine_delay)
                    if kind == "explain":
                        result, nodes = execute_fragment_task_explained(runtime, query)
                    else:
                        result = execute_fragment_task(
                            runtime, query, collector=collector, parent_id=parent_id
                        )
                        nodes = result.run
                    if tasks is not None:
                        tasks.append(result)
                    reply.append((result.fragment_id, nodes, result.wall_seconds))
                elapsed = time.perf_counter() - started
                if kind == "query" and collector is None:
                    return self._dumps_pipe_results(
                        request_id, reply, elapsed, time.perf_counter(), attempt
                    )
                spans = (
                    _finish_spans(collector, parent_id, reply, elapsed)
                    if collector is not None
                    else None
                )
                out = ("results", (request_id, reply, elapsed, attempt, spans))
            else:
                raise ClusterError(f"unknown message kind {kind!r}")
            return pickle.dumps((*out, time.perf_counter()))
        except Exception:
            return pickle.dumps(("error", (request_id, traceback.format_exc())))


def worker_main(connection: Connection, payload: bytes) -> None:
    """Worker process: build the runtimes once, then recv → handle → send.

    ``payload`` is the pickled ``(mode, data, network_model, compiled)``
    startup hand-off (:func:`build_worker_runtimes`); the message kinds
    are :class:`WorkerHandler`'s.
    """
    registry = None
    try:
        mode, data, network_model, compiled = pickle.loads(payload)
        registry, runtimes = build_worker_runtimes(mode, data, compiled)
        handler = WorkerHandler(registry, runtimes, network_model)
        connection.send(("ready", len(runtimes)))
        while not handler.stopped:
            reply = handler.handle(connection.recv_bytes())
            if reply is not None:
                connection.send_bytes(reply)
    except (EOFError, OSError):  # coordinator went away
        return
    finally:
        # Unmap attached segments before interpreter shutdown so their
        # __del__ never races the kernels' exported memoryviews.
        if registry is not None:
            registry.release_all()


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelinedResponse(RunAnswer):
    """Outcome of one query on a process cluster.

    ``result_run`` is the answer as one sorted run (what the ANSWER
    frame and the NDJSON reply are written from); ``result_nodes`` is
    the same as a frozenset, built on first use.  ``degraded`` marks
    answers missing a fragment that had no live worker left.
    """

    result_run: array
    fragment_seconds: dict[int, float]
    machine_seconds: dict[int, float]
    wall_seconds: float
    message_bytes: int
    degraded: bool = False
    spans: tuple[Span, ...] = ()
    # Explain mode only: fragment_id -> (run, per-term distance columns).
    partials: dict[int, tuple[array, list[array]]] | None = None
    # >0 when any failover (reroute or restart) touched this query.
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


class _InFlight:
    """Coordinator-side state for one query across its fragment tasks."""

    __slots__ = (
        "future",
        "query",
        "explain",
        "attempt",
        "valid_from",  # replies from attempts before this are discarded
        "awaiting",  # fragment_id -> machine the task is routed to
        "apply_seq",  # the apply fan-outs this query's tasks were sent after
        "started",
        "degraded",
        "runs",  # fragment_id -> that fragment's sorted result run
        "fragment_seconds",
        "machine_seconds",
        "message_bytes",
        "collector",  # SpanCollector when the query is traced, else None
        "root",  # the open "query" span
        "dispatch_spans",  # machine_id -> open dispatch spans
        "partials",
    )

    def __init__(
        self, query: QClassQuery, explain: bool, awaiting: dict[int, int], apply_seq: int
    ) -> None:
        self.future: Future[PipelinedResponse] = Future()
        self.query = query
        self.explain = explain
        self.attempt = 0
        self.valid_from = 0
        self.awaiting = awaiting
        self.apply_seq = apply_seq
        self.started = time.perf_counter()
        self.degraded = False
        self.runs: dict[int, array] = {}
        self.fragment_seconds: dict[int, float] = {}
        self.machine_seconds: dict[int, float] = {}
        self.message_bytes = 0
        self.collector: SpanCollector | None = None
        self.root: Span | None = None
        self.dispatch_spans: dict[int, list[Span]] = {}
        self.partials: dict[int, tuple[array, list[array]]] = {}


class _InFlightApply:
    """Coordinator-side state for one epoch delta being applied."""

    __slots__ = (
        "future", "epoch", "awaiting", "started", "swapped",
        "message_bytes", "manifests", "acked_machines",
    )

    def __init__(self, epoch: int, awaiting: set[int]) -> None:
        self.future: Future[dict[str, object]] = Future()
        self.epoch = epoch
        self.awaiting = awaiting
        self.started = time.perf_counter()
        self.swapped: set[int] = set()
        self.message_bytes = 0
        # machine_id -> the segment manifests shipped to it (shm mode);
        # an ack moves that machine's store leases to the new epoch.
        self.manifests: dict[int, list] = {}
        self.acked_machines: list[int] = []


class _InFlightStats:
    """Coordinator-side aggregation for one coverage-cache stats sweep."""

    __slots__ = ("future", "awaiting", "totals")

    def __init__(self, awaiting: set[int]) -> None:
        self.future: Future[dict[str, int]] = Future()
        self.awaiting = awaiting
        self.totals: dict[str, int] = dict.fromkeys(CacheStats._fields, 0)


def _settle(future: Future, result=None, error: Exception | None = None) -> None:
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


class ProcessClusterCore:
    """Worker processes behind a request-id-multiplexing coordinator.

    Subclasses provide ``start`` (via :meth:`_launch`) and the three
    policy hooks; everything else — submit, dispatch, applies, stats,
    shutdown — is shared.  Use as a context manager::

        with PipelinedCluster.start(fragments, indexes, num_machines=4) as cluster:
            pending = [cluster.submit(q) for q in queries]   # all in flight
            answers = [p.future.result() for p in pending]
    """

    def __init__(
        self,
        processes: list[Process],
        connections: list[Connection],
        fragment_assignments: list[list[int]],
        network_model: NetworkModel | None = None,
        shm_store: SharedSegmentStore | None = None,
        startup_bytes: list[int] | None = None,
    ) -> None:
        # Bound here, not at import: repro.serve imports this module.
        from repro.serve.wire import loads_pipe

        self._loads_pipe = loads_pipe
        self._processes = processes
        self._connections = connections
        self._assignments = fragment_assignments
        self._hosts: dict[int, list[int]] = {}
        for machine_id, hosted in enumerate(fragment_assignments):
            for fragment_id in hosted:
                self._hosts.setdefault(fragment_id, []).append(machine_id)
        self._fragment_ids = sorted(self._hosts)
        self._network_model = network_model
        self._shm_store = shm_store
        self.startup_bytes = startup_bytes or []
        self._send_locks = [threading.Lock() for _ in connections]
        # Serialises whole fan-outs (query, apply, failover re-dispatch)
        # so their relative order is identical on every pipe — the
        # torn-epoch guard.  Re-entrant: a fan-out that trips over a
        # broken pipe handles the death (which may re-dispatch, i.e.
        # send) while already holding it.
        self._fanout_lock = threading.RLock()
        self._lock = threading.Lock()
        self._pending: dict[int, _InFlight] = {}
        self._pending_applies: dict[int, _InFlightApply] = {}
        self._pending_stats: dict[int, _InFlightStats] = {}
        self._ids = itertools.count()
        self._dead: set[int] = set()
        self._degraded = False
        self._alive = True
        self._closing = False
        self._dispatchers: list[threading.Thread] = []
        self.current_epoch = 0
        # Bumped under _fanout_lock by every apply fan-out; a query
        # snapshots it so a failover can tell whether an apply raced it.
        self._apply_seq = 0

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _route(
        self, fragment_ids, alive: set[int], current: dict[int, int] | None
    ) -> dict[int, int]:
        """Pick an alive worker per fragment task; drop unservable ones.

        Caller holds ``_lock``.  ``current`` maps the query's tasks that
        stay where they are (a reroute), for load-aware policies.
        """
        raise NotImplementedError

    def _note_reply(self, machine_id: int, tasks: int, elapsed: float) -> None:
        """Load bookkeeping for every reply, stale ones included (``_lock`` held)."""

    def _reassign(
        self, inflight: _InFlight, owed: list[int], alive: set[int]
    ) -> dict[int, int] | None:
        """Decide for a query that owed ``owed`` tasks to a dead worker.

        Caller holds ``_lock``.  Return ``None`` to fail the query, or
        the tasks to (re)send after updating ``inflight.awaiting``.
        """
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def _launch(
        cls,
        fragments: list[Fragment],
        indexes: list[NPDIndex],
        *,
        num_machines: int | None,
        timeout_seconds: float,
        network_model: NetworkModel | None,
        compiled: bool,
        use_shm: bool,
        fragment_assignments: list[list[int]] | None = None,
        **policy,
    ):
        """Fork the workers, handshake, then start the dispatchers."""
        shm_store = SharedSegmentStore() if use_shm else None
        processes, connections, assignments, startup_bytes = spawn_workers(
            fragments,
            indexes,
            num_machines,
            network_model,
            compiled,
            shm_store,
            fragment_assignments,
        )
        cluster = cls(
            processes,
            connections,
            assignments,
            network_model,
            shm_store,
            startup_bytes,
            **policy,
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
        for machine_id, connection in enumerate(connections):
            thread = threading.Thread(
                target=cluster._dispatch_loop,
                args=(machine_id, connection),
                name=f"disks-dispatch-{machine_id}",
                daemon=True,
            )
            thread.start()
            cluster._dispatchers.append(thread)
        return cluster

    def __enter__(self):
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
        """True once some fragment has no live worker; answers are then partial."""
        return self._degraded

    def _alive_machines(self) -> set[int]:
        return set(range(len(self._connections))) - self._dead

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
            leftovers = [
                (pending, what)
                for table, what in (
                    (self._pending, "query"),
                    (self._pending_applies, "apply"),
                    (self._pending_stats, "stats"),
                )
                for pending in table.values()
            ]
            self._pending.clear()
            self._pending_applies.clear()
            self._pending_stats.clear()
        for pending, what in leftovers:
            _settle(
                pending.future,
                error=ClusterError(f"the cluster was shut down mid-{what}"),
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self, machine_id: int, connection: Connection) -> None:
        """Match this worker's replies to pending futures, until EOF."""
        loads_pipe = self._loads_pipe
        while True:
            try:
                raw = connection.recv_bytes()
            except (EOFError, OSError):
                if not self._closing:
                    self._on_worker_death(machine_id)
                return
            kind, body, *meta = loads_pipe(raw)
            if kind == "stopped":
                return
            emulate_delivery(self._network_model, meta[0] if meta else None, len(raw))
            if kind == "results":
                self._absorb_reply(machine_id, len(raw), *body)
            elif kind == "applied":
                request_id, _epoch, swapped, _elapsed = body
                self._absorb_apply_ack(machine_id, request_id, swapped, len(raw))
            elif kind == "stats":
                self._absorb_stats(machine_id, *body)
            elif kind == "error":
                request_id, text = body
                if request_id is not None:
                    self._fail_request(
                        request_id,
                        ClusterError(f"worker {machine_id} failed:\n{text}"),
                    )

    def _absorb_reply(
        self,
        machine_id: int,
        wire_bytes: int,
        request_id: int,
        reply: list[tuple[int, "array | tuple[array, list[array]]", float]],
        elapsed: float,
        attempt: int = 0,
        spans: list[Span] | None = None,
    ) -> None:
        with self._lock:
            self._note_reply(machine_id, len(reply), elapsed)
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
                # Explain replies carry a (run, columns) partial; plain
                # replies carry the fragment's sorted run.  Keyed by
                # fragment: a re-answered fragment replaces its run.
                if isinstance(nodes, tuple):
                    inflight.partials[fragment_id] = nodes
                    nodes = nodes[0]
                inflight.runs[fragment_id] = as_run(nodes)
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

    def _complete_query(self, inflight: _InFlight) -> None:
        spans: tuple[Span, ...] = ()
        if inflight.collector is not None:
            for open_spans in inflight.dispatch_spans.values():
                for span in open_spans:
                    span.finish()
            inflight.dispatch_spans.clear()
            if inflight.root is not None and inflight.root.end is None:
                inflight.root.finish()
            spans = tuple(inflight.collector.spans)
        _settle(
            inflight.future,
            PipelinedResponse(
                result_run=merge_runs(inflight.runs.values()),
                fragment_seconds=dict(inflight.fragment_seconds),
                machine_seconds=dict(inflight.machine_seconds),
                wall_seconds=time.perf_counter() - inflight.started,
                message_bytes=inflight.message_bytes,
                degraded=inflight.degraded,
                spans=spans,
                partials=dict(inflight.partials) if inflight.partials else None,
                attempt=inflight.attempt,
            ),
        )

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
        if shipped is not None:
            # Serial worker + FIFO pipe: this ack proves no in-flight
            # query still reads the superseded epoch on that machine.
            self._shm_store.lease(machine_id, shipped)
        if done:
            self._complete_apply(apply)

    def _complete_apply(self, apply: _InFlightApply) -> None:
        self.current_epoch = max(self.current_epoch, apply.epoch)
        _settle(
            apply.future,
            {
                "epoch": apply.epoch,
                "swapped_fragments": sorted(apply.swapped),
                "acked_machines": sorted(apply.acked_machines),
                "segments_published": len(
                    {m.name for shipped in apply.manifests.values() for m in shipped}
                ),
                "total_message_bytes": apply.message_bytes,
                "wall_seconds": time.perf_counter() - apply.started,
            },
        )

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
        _settle(pending.future, dict(pending.totals))

    def _fail_request(self, request_id: int, error: ClusterError) -> None:
        with self._lock:
            pending = [
                table.pop(request_id, None)
                for table in (self._pending, self._pending_applies, self._pending_stats)
            ]
        for entry in pending:
            if entry is not None:
                _settle(entry.future, error=error)

    def _on_worker_death(self, machine_id: int) -> None:
        """Mark a worker dead and settle everything it still owed.

        Each query that awaited it goes to :meth:`_reassign` (fail, or
        re-dispatch to survivors); applies and stats sweeps complete on
        the survivors.  Runs under ``_fanout_lock`` so no apply fan-out
        can interleave between a reassignment and its re-dispatch — that
        window is exactly where a torn epoch could sneak in.
        """
        if self._shm_store is not None:
            # The dead worker's mappings died with it; dropping its
            # leases lets superseded segments retire without waiting on
            # an ack that will never come.
            self._shm_store.release_machine(machine_id)
        failed: list[_InFlight] = []
        completed: list[_InFlight] = []
        with self._fanout_lock:
            with self._lock:
                if machine_id in self._dead:
                    return
                self._dead.add(machine_id)
                alive = self._alive_machines()
                self._degraded = any(
                    alive.isdisjoint(hosts) for hosts in self._hosts.values()
                )
                resends = []
                for request_id, inflight in list(self._pending.items()):
                    owed = [fid for fid, m in inflight.awaiting.items() if m == machine_id]
                    if not owed:
                        continue
                    # The dead machine's dispatch spans will never see a
                    # reply; close them so the trace tree stays well-formed.
                    for span in inflight.dispatch_spans.pop(machine_id, ()):
                        span.finish()
                    routed = self._reassign(inflight, owed, alive)
                    if routed is None:
                        del self._pending[request_id]
                        failed.append(inflight)
                    elif not inflight.awaiting:
                        del self._pending[request_id]
                        completed.append(inflight)
                    else:
                        plan = self._plan(inflight, routed, rerouted=True)
                        resends.append((request_id, inflight, plan))
                # Applies and stats sweeps complete on the survivors: the
                # dead machine's fragments are unanswerable regardless.
                settled = []
                for table in (self._pending_applies, self._pending_stats):
                    for request_id, pending in list(table.items()):
                        pending.awaiting.discard(machine_id)
                        if not pending.awaiting:
                            del table[request_id]
                            settled.append(pending)
            for request_id, inflight, plan in resends:
                self._send_plan(request_id, inflight, plan)
        error = ClusterError(f"worker {machine_id} died mid-query; the cluster is degraded")
        for inflight in failed:
            _settle(inflight.future, error=error)
        for pending in settled:
            if isinstance(pending, _InFlightApply):
                self._complete_apply(pending)
            else:
                _settle(pending.future, dict(pending.totals))
        for inflight in completed:
            self._complete_query(inflight)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _plan(
        self, inflight: _InFlight, routed: dict[int, int], rerouted: bool
    ) -> list[tuple[int, tuple[int, ...], tuple[str, str] | None]]:
        """Under ``_lock``: one ``(machine, fragment ids, trace wire)`` per target.

        A machine asked for every fragment it hosts is sent the empty
        list, so a broadcast shares one encoded payload.  Traced queries
        open a ``dispatch`` span per target here.
        """
        by_machine: dict[int, list[int]] = {}
        for fragment_id, machine_id in routed.items():
            by_machine.setdefault(machine_id, []).append(fragment_id)
        plan = []
        for machine_id, fragment_ids in by_machine.items():
            names = (
                ()
                if len(fragment_ids) == len(self._assignments[machine_id])
                else tuple(fragment_ids)
            )
            trace_wire = None
            if inflight.collector is not None and inflight.root is not None:
                span = inflight.collector.start(
                    "dispatch",
                    parent_id=inflight.root.span_id,
                    machine_id=machine_id,
                    attempt=inflight.attempt,
                    **({"rerouted": True} if rerouted else {}),
                )
                inflight.dispatch_spans.setdefault(machine_id, []).append(span)
                trace_wire = (inflight.collector.trace_id, span.span_id)
            plan.append((machine_id, names, trace_wire))
        return plan

    def _send_plan(self, request_id: int, inflight: _InFlight, plan) -> None:
        """Under ``_fanout_lock``: encode and send each target's :func:`query_frame`."""
        payloads: dict[tuple, bytes] = {}
        sent_bytes = 0
        for machine_id, names, trace_wire in plan:
            payload = payloads.get((names, trace_wire))
            if payload is None:
                payload = query_frame(
                    request_id, inflight.query, trace_wire, inflight.attempt, names,
                    inflight.explain,
                )
                payloads[names, trace_wire] = payload
            try:
                with self._send_locks[machine_id]:
                    self._connections[machine_id].send_bytes(payload)
                sent_bytes += len(payload)
            except (BrokenPipeError, OSError):
                self._on_worker_death(machine_id)
        with self._lock:
            inflight.message_bytes += sent_bytes

    def submit(
        self,
        query: QClassQuery,
        *,
        trace: TraceContext | None = None,
        explain: bool = False,
    ) -> PendingQuery:
        """Send one task per fragment to a live worker; return immediately.

        ``trace`` opts the query into span recording: the coordinator
        opens the root ``query`` span and one ``dispatch`` span per
        target, each worker piggybacks its ``queue-wait``/``task``/
        ``eval``/``union``/``serialize`` spans on its reply, and the
        resolved :class:`PipelinedResponse` carries the assembled tree.

        ``explain`` asks each worker for the exact per-term distances of
        its result nodes alongside the node sets (the semantic result
        cache's admission payload); the response then carries
        ``partials``.  Result nodes are identical either way.  Ignored
        for traced queries (trace wins).
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        # The whole route-register-send sequence holds _fanout_lock: if a
        # worker death could interleave between registering the query
        # and sending its payloads, a failover would re-dispatch the
        # not-yet-sent tasks and an apply could slip between the two
        # dispatches — a torn answer the apply-seq guard cannot see.
        with self._fanout_lock:
            with self._lock:
                alive = self._alive_machines()
                if not alive:
                    raise ClusterError("every worker has died; the cluster cannot serve")
                routed = self._route(self._fragment_ids, alive, None)
                if not routed:
                    raise ClusterError("no fragment has an alive replica")
                request_id = next(self._ids)
                inflight = _InFlight(
                    query, explain and trace is None, dict(routed), self._apply_seq
                )
                inflight.degraded = len(routed) < len(self._fragment_ids)
                if trace is not None:
                    inflight.collector = SpanCollector(trace.trace_id)
                    inflight.root = inflight.collector.start(
                        "query", parent_id=trace.span_id
                    )
                self._pending[request_id] = inflight
                plan = self._plan(inflight, routed, rerouted=False)
            self._send_plan(request_id, inflight, plan)
        return PendingQuery(request_id=request_id, future=inflight.future)

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

    def forget(self, request_id: int) -> None:
        """Drop a pending query (e.g. after a caller-side timeout)."""
        with self._lock:
            self._pending.pop(request_id, None)

    # ------------------------------------------------------------------
    # Live updates and control
    # ------------------------------------------------------------------
    def submit_updates(
        self,
        epoch: int,
        replacements: list[tuple[Fragment, NPDIndex]],
        seed_keys: dict[int, frozenset] | None = None,
    ) -> PendingApply:
        """Fan an epoch delta out to every live worker hosting a changed fragment.

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
        changed = {fragment.fragment_id for fragment, _index in replacements}
        with self._lock:
            involved = [
                machine_id
                for machine_id in sorted(self._alive_machines())
                if not changed.isdisjoint(self._assignments[machine_id])
            ]
            request_id = next(self._ids)
            apply = _InFlightApply(epoch, set(involved))
            if involved:
                self._pending_applies[request_id] = apply
        if not involved:
            # Nothing to ship (all changed fragments on dead machines, or
            # an empty delta): publish the epoch immediately.
            self._complete_apply(apply)
            return PendingApply(request_id=request_id, epoch=epoch, future=apply.future)
        if self._shm_store is not None and seed_keys is None:
            # Pack each changed fragment once, ahead of the fan-out lock.
            for fragment, index in replacements:
                self._shm_store.publish(fragment, index, epoch=epoch)
        sent_bytes = 0
        with self._fanout_lock:
            self._apply_seq += 1
            # A send failure here must NOT fail over inline: the seq is
            # already bumped, so a restarted query could reach machines
            # later in `involved` *before* their apply payload and answer
            # on the old epoch.  The dead fail over once every apply
            # payload is on its pipe.
            failed: list[int] = []
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

    def coverage_cache_stats(self, *, timeout_seconds: float = 10.0) -> dict[str, int]:
        """Cluster-wide coverage-cache counters, summed over live workers.

        Same shape as :meth:`SimulatedCluster.coverage_cache_stats`, so
        the serve layer's ``stats`` op surfaces any cluster kind
        identically.  Rides the multiplexed pipes as a control
        round-trip; dead workers are skipped (their counters died with
        them), and a worker dying mid-sweep completes the sweep on the
        survivors.
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        with self._lock:
            live = sorted(self._alive_machines())
            request_id = next(self._ids)
            pending = _InFlightStats(set(live))
            if live:
                self._pending_stats[request_id] = pending
        if not live:
            return dict(pending.totals)
        payload = pickle.dumps(("cache_stats", (request_id,), time.perf_counter()))
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
