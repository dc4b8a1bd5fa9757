"""A real coordinator/worker deployment on OS processes.

Where :class:`~repro.dist.cluster.SimulatedCluster` *models* the cluster
(individual task timing + makespan arithmetic), this module actually
runs one: persistent worker processes each hold their fragment runtimes
and serve queries over pipes, concurrently.  It demonstrates that the
share-nothing design really is share-nothing — each worker process owns
nothing but its fragments and indexes, and the only channels in the
topology connect workers to the coordinator.

Use as a context manager::

    with ProcessCluster.start(fragments, indexes) as cluster:
        response = cluster.execute(query)

Workers are daemons and also shut down cleanly on ``shutdown()``; a
worker that raises ships the traceback back instead of hanging the
coordinator.
"""

from __future__ import annotations

import pickle
import time
import traceback
from array import array
from dataclasses import dataclass
from multiprocessing import Pipe, Process, get_context
from multiprocessing.connection import Connection

from repro.core.coverage import FragmentRuntime
from repro.core.executor import execute_fragment_task
from repro.core.fragment import Fragment
from repro.core.kernel import FragmentKernel
from repro.core.npd import NPDIndex
from repro.core.queries import QClassQuery
from repro.core.runs import RunAnswer, merge_runs
from repro.dist.network import NetworkModel
from repro.exceptions import ClusterError
from repro.obs.trace import Span, SpanCollector, TraceContext
from repro.shm import SharedSegmentStore, ShmWorkerRuntimes

__all__ = [
    "ProcessClusterResponse",
    "ProcessCluster",
    "spawn_workers",
    "build_worker_runtimes",
    "apply_epoch",
    "epoch_message",
    "segments_shipped",
    "emulate_delivery",
    "worker_trace_collector",
    "finish_worker_spans",
]

_DEFAULT_TIMEOUT = 120.0
APPLY_KINDS = ("apply_shm", "apply_seeds", "apply")


def spawn_workers(
    fragments: list[Fragment],
    indexes: list[NPDIndex],
    num_machines: int | None,
    worker_main,
    network_model: NetworkModel | None = None,
    compiled: bool = True,
    shm_store=None,
    fragment_assignments: list[list[int]] | None = None,
) -> tuple[list[Process], list[Connection], list[list[int]], list[int]]:
    """Fork one worker process per machine, fragments assigned round-robin.

    Shared by :class:`ProcessCluster` and the pipelined serving cluster
    (:class:`repro.serve.PipelinedCluster`); the two differ only in the
    worker loop they run over the returned pipe connections.  The third
    returned value maps each machine to the fragment ids it hosts, so
    epoch deltas (:meth:`ProcessCluster.apply_updates`) can be routed to
    only the owning worker; the fourth is the per-machine startup
    payload size in bytes (what actually crossed the pipe at fork).

    ``shm_store`` (a :class:`repro.shm.SharedSegmentStore`) switches the
    startup hand-off to the zero-copy plane: each fragment's compiled
    kernel is packed into a shared-memory segment on the coordinator and
    the worker receives only the O(1)-byte manifests — the fragments and
    indexes themselves never cross the pipe.  Requires ``compiled``.

    ``network_model`` turns the analytic interconnect model into *wall
    clock*: every message carries its send timestamp, and the receiving
    end sleeps until the modelled delivery time ``sent_at + latency +
    bytes/bandwidth`` (an uncongested link — latency is propagation
    delay, so concurrent transfers overlap; only the bandwidth term
    occupies the wire).  Pipes on one host are orders of magnitude
    faster than the paper's 100 Mb switch, so without this the
    coordinator↔machine round trips the paper charges for are invisible;
    with it, single-host experiments reproduce their cost honestly.
    ``None`` (the default) adds nothing.

    ``fragment_assignments`` overrides the round-robin layout with an
    explicit machine → fragment-id mapping (one list per machine, ids
    may repeat across machines).  This is how the HA tier forks replica
    groups: :meth:`ReplicaPlacement.assignments` hands the chained
    layout straight in, ``num_machines`` is ignored, and a fragment
    hosted by several machines is published into shared memory exactly
    once (``publish`` is idempotent per fragment+epoch).
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
        num_machines = len(fragment_assignments)
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
    fragment_assignments = [
        [fragment.fragment_id for fragment, _index in pairs] for pairs in assignments
    ]
    return processes, connections, fragment_assignments, startup_bytes


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


def worker_trace_collector(
    trace_wire: tuple[str, str | None] | None,
    sent_at: float | None,
    received: float,
    wire_bytes: int,
) -> tuple[SpanCollector | None, str | None]:
    """Worker-side trace setup, shared by both worker loops.

    For a traced query (``trace_wire`` = ``(trace_id, parent span
    id)``) this builds the local collector and records the
    ``queue-wait`` span — sender timestamp to post-delivery dequeue,
    which covers pipe transit, the emulated link, and time spent
    behind earlier messages in the FIFO.  Returns ``(None, None)`` for
    the untraced fast path.
    """
    if trace_wire is None:
        return None, None
    trace_id, parent_id = trace_wire
    collector = SpanCollector(trace_id)
    if sent_at is not None:
        collector.record(
            "queue-wait",
            sent_at,
            received,
            parent_id=parent_id,
            bytes=wire_bytes,
        )
    return collector, parent_id


def finish_worker_spans(
    collector: SpanCollector,
    parent_id: str | None,
    reply_body: object,
    elapsed: float,
) -> list[Span]:
    """Measure reply serialisation, then return the spans to piggyback.

    The serialize span must itself travel inside the reply, so the
    reply body is pickled once as a measured probe and the final
    message (with spans attached) is pickled by the caller — the double
    pickle only happens on sampled queries.
    """
    started = time.perf_counter()
    probe = pickle.dumps(("results", (reply_body, elapsed), 0.0))
    ended = time.perf_counter()
    collector.record(
        "serialize", started, ended, parent_id=parent_id, bytes=len(probe)
    )
    return collector.spans


def build_worker_runtimes(mode: str, data, compiled: bool):
    """Materialise a worker's runtimes from either startup hand-off.

    ``("pickle", pairs)`` compiles kernels from the shipped fragments —
    the scratch arrays live where the queries run and never cross a
    pipe.  ``("shm", manifests)`` attaches the coordinator-packed
    shared-memory segments instead: nothing but the manifests crossed
    the pipe, and the flat arrays are mapped, not copied.  Returns
    ``(registry, runtimes)`` — the registry is ``None`` in pickle mode
    and the attach point for ``apply_shm`` epoch swaps otherwise.
    """
    if mode == "shm":
        registry = ShmWorkerRuntimes()
        registry.attach(data)
        return registry, registry.runtimes()
    if mode != "pickle":
        raise ClusterError(f"unknown worker startup mode {mode!r}")
    runtimes = [
        FragmentRuntime(fragment, index, compiled=compiled)
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
    """
    if kind == "apply_shm":
        swapped = registry.attach(data)
        return registry.runtimes(), swapped
    hosted = {rt.fragment.fragment_id: rt for rt in runtimes}
    swapped = []
    if kind == "apply_seeds":
        for fragment_id, patch in data.items():
            hosted[fragment_id].kernel.apply_seed_patch(patch)
            swapped.append(fragment_id)
        return runtimes, swapped
    for fragment, index in data:
        runtime = hosted.get(fragment.fragment_id)
        if runtime is not None:
            runtime.refresh(fragment, index)
            swapped.append(fragment.fragment_id)
    return runtimes, swapped


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


def segments_shipped(manifests_by_machine: dict[int, list]) -> int:
    """Distinct segments among the manifests one apply sent out."""
    return len({m.name for shipped in manifests_by_machine.values() for m in shipped})


def _worker_main(connection: Connection, payload: bytes) -> None:
    """Worker loop: deserialise runtimes once, then serve queries."""
    registry = None
    try:
        mode, data, network_model, compiled = pickle.loads(payload)
        registry, runtimes = build_worker_runtimes(mode, data, compiled)
        connection.send(("ready", len(runtimes)))
        while True:
            raw = connection.recv_bytes()
            kind, body, *meta = pickle.loads(raw)
            if kind == "stop":
                connection.send(("stopped", None))
                return
            if kind in APPLY_KINDS:
                epoch, data = body
                emulate_delivery(network_model, meta[0] if meta else None, len(raw))
                started = time.perf_counter()
                runtimes, swapped = apply_epoch(kind, data, registry, runtimes)
                elapsed = time.perf_counter() - started
                connection.send_bytes(
                    pickle.dumps(
                        ("applied", (epoch, swapped, elapsed), time.perf_counter())
                    )
                )
                continue
            if kind != "query":  # pragma: no cover - protocol guard
                connection.send(("error", f"unknown message kind {kind!r}"))
                continue
            emulate_delivery(network_model, meta[0] if meta else None, len(raw))
            received = time.perf_counter()
            query, trace_wire = body
            collector, parent_id = worker_trace_collector(
                trace_wire, meta[0] if meta else None, received, len(raw)
            )
            started = time.perf_counter()
            results = [
                execute_fragment_task(
                    runtime, query, collector=collector, parent_id=parent_id
                )
                for runtime in runtimes
            ]
            elapsed = time.perf_counter() - started
            reply = [(r.fragment_id, r.run, r.wall_seconds) for r in results]
            if collector is not None:
                body_out = (
                    reply,
                    elapsed,
                    finish_worker_spans(collector, parent_id, reply, elapsed),
                )
            else:
                body_out = (reply, elapsed)
            connection.send_bytes(
                pickle.dumps(("results", body_out, time.perf_counter()))
            )
    except EOFError:  # coordinator went away
        return
    except Exception:  # pragma: no cover - surfaced to the coordinator
        connection.send(("error", traceback.format_exc()))
    finally:
        # Unmap attached segments before interpreter shutdown so their
        # __del__ never races the kernels' exported memoryviews.
        if registry is not None:
            registry.release_all()


@dataclass(frozen=True)
class ProcessClusterResponse(RunAnswer):
    """Outcome of one concurrently executed query.

    ``result_run`` is the answer as one sorted run, ``result_nodes`` the
    same as a frozenset (built on first use).  ``spans`` holds the
    assembled trace spans when the query was executed with a trace
    context (empty otherwise).
    """

    result_run: array
    fragment_seconds: dict[int, float]
    machine_seconds: dict[int, float]
    wall_seconds: float
    message_bytes: int
    spans: tuple[Span, ...] = ()


class ProcessCluster:
    """Persistent worker processes behind a pipe-based coordinator."""

    def __init__(
        self,
        processes: list[Process],
        connections: list[Connection],
        network_model: NetworkModel | None = None,
        fragment_assignments: list[list[int]] | None = None,
        shm_store: SharedSegmentStore | None = None,
        startup_bytes: list[int] | None = None,
    ) -> None:
        self._processes = processes
        self._connections = connections
        self._network_model = network_model
        self._assignments = fragment_assignments or [[] for _ in processes]
        self._shm_store = shm_store
        self.startup_bytes = startup_bytes or []
        self._alive = True
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
    ) -> "ProcessCluster":
        """Fork the workers and wait until every one reports ready.

        ``network_model`` makes workers *emulate* the modelled link by
        sleeping for each message's transfer time (see
        :func:`spawn_workers`).  ``compiled`` selects the packed kernel
        (default) or the dict-based reference evaluator in the workers.
        ``use_shm`` hands fragments to workers as shared-memory segment
        manifests instead of pickled state (see :mod:`repro.shm`).
        """
        shm_store = SharedSegmentStore() if use_shm else None
        processes, connections, assignments, startup_bytes = spawn_workers(
            fragments,
            indexes,
            num_machines,
            _worker_main,
            network_model,
            compiled,
            shm_store,
        )
        cluster = cls(
            processes, connections, network_model, assignments, shm_store, startup_bytes
        )
        for machine_id, connection in enumerate(connections):
            try:
                kind, body, _ = cls._receive(connection, timeout_seconds, machine_id)
            except ClusterError:
                cluster.shutdown()
                raise
            if kind != "ready":
                cluster.shutdown()
                raise ClusterError(f"worker {machine_id} failed to start: {body}")
        return cluster

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    @property
    def num_machines(self) -> int:
        """Worker-process count."""
        return len(self._processes)

    def shutdown(self, timeout_seconds: float = 10.0) -> None:
        """Stop every worker; forceful termination as a last resort."""
        if not self._alive:
            return
        self._alive = False
        for connection in self._connections:
            try:
                connection.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=timeout_seconds)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        for connection in self._connections:
            connection.close()
        if self._shm_store is not None:
            self._shm_store.unlink_all()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @staticmethod
    def _receive(
        connection: Connection,
        timeout_seconds: float,
        machine_id: int,
        network_model: NetworkModel | None = None,
    ):
        """One framed reply as ``(kind, body, wire_bytes)``.

        Reads the raw pickle frame (``recv_bytes``) so byte accounting
        and transport share one buffer, and converts a vanished worker
        (EOF on the pipe) into a :class:`ClusterError` instead of
        leaking :class:`EOFError` or hanging.
        """
        if not connection.poll(timeout_seconds):
            raise ClusterError(
                f"worker {machine_id} did not answer within {timeout_seconds}s"
            )
        try:
            raw = connection.recv_bytes()
        except (EOFError, OSError):
            raise ClusterError(
                f"worker {machine_id} died before answering"
            ) from None
        kind, body, *meta = pickle.loads(raw)
        emulate_delivery(network_model, meta[0] if meta else None, len(raw))
        return kind, body, len(raw)

    def execute(
        self,
        query: QClassQuery,
        *,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
        trace: TraceContext | None = None,
    ) -> ProcessClusterResponse:
        """Broadcast the query, gather concurrently computed results.

        With a ``trace`` context each worker records its stage spans
        (queue wait, per-fragment task/eval/union, serialization) and
        piggybacks them on the result message it already sends; the
        coordinator stamps machine ids and assembles the tree.  Traced
        queries send per-machine payloads (each machine's dispatch span
        id differs); the untraced fast path broadcasts one shared
        payload exactly as before.
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        started = time.perf_counter()

        collector: SpanCollector | None = None
        root = None
        dispatch_spans: dict[int, Span] = {}
        total_bytes = 0
        if trace is None:
            payload = pickle.dumps(("query", (query, None), started))
            for machine_id, connection in enumerate(self._connections):
                try:
                    connection.send_bytes(payload)
                except (BrokenPipeError, OSError):
                    raise ClusterError(
                        f"worker {machine_id} is gone; the cluster is unusable"
                    ) from None
            total_bytes = len(payload) * len(self._connections)
        else:
            collector = SpanCollector(trace.trace_id)
            root = collector.start("query", parent_id=trace.span_id)
            for machine_id, connection in enumerate(self._connections):
                dispatch = collector.start(
                    "dispatch", parent_id=root.span_id, machine_id=machine_id
                )
                dispatch_spans[machine_id] = dispatch
                payload = pickle.dumps(
                    (
                        "query",
                        (query, (trace.trace_id, dispatch.span_id)),
                        time.perf_counter(),
                    )
                )
                try:
                    connection.send_bytes(payload)
                except (BrokenPipeError, OSError):
                    raise ClusterError(
                        f"worker {machine_id} is gone; the cluster is unusable"
                    ) from None
                total_bytes += len(payload)

        runs: list[array] = []
        fragment_seconds: dict[int, float] = {}
        machine_seconds: dict[int, float] = {}
        for machine_id, connection in enumerate(self._connections):
            kind, body, wire_bytes = self._receive(
                connection, timeout_seconds, machine_id, self._network_model
            )
            if kind == "error":
                raise ClusterError(f"worker {machine_id} failed:\n{body}")
            reply, elapsed, *extra = body
            machine_seconds[machine_id] = elapsed
            total_bytes += wire_bytes
            for fragment_id, nodes, seconds in reply:
                runs.append(nodes)
                fragment_seconds[fragment_id] = seconds
            if collector is not None:
                worker_spans: list[Span] = extra[0] if extra else []
                for span in worker_spans:
                    span.machine_id = machine_id
                collector.extend(worker_spans)
                dispatch_spans[machine_id].finish()
        if root is not None:
            root.finish()
        return ProcessClusterResponse(
            result_run=merge_runs(runs),
            fragment_seconds=fragment_seconds,
            machine_seconds=machine_seconds,
            wall_seconds=time.perf_counter() - started,
            message_bytes=total_bytes,
            spans=tuple(collector.spans) if collector is not None else (),
        )

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        epoch: int,
        replacements: list[tuple[Fragment, NPDIndex]],
        seed_keys: dict[int, frozenset] | None = None,
        *,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
    ) -> dict[str, object]:
        """Ship an epoch delta to the owning workers and await their acks.

        Each worker receives only what it hosts (:func:`epoch_message`:
        seed-list patches when ``seed_keys`` scopes a keyword-only delta
        on shared-memory workers, else whole fragments), swaps in place
        and acks with the epoch and the swapped fragment ids.  Lockstep
        like :meth:`execute`: the call returns only after every involved
        worker has swapped, so a subsequent query observes the new epoch
        everywhere.
        """
        if not self._alive:
            raise ClusterError("the cluster has been shut down")
        if epoch <= self.current_epoch:
            raise ClusterError(
                f"epoch must advance: cluster at {self.current_epoch}, got {epoch}"
            )
        started = time.perf_counter()
        involved: list[int] = []
        leases: dict[int, list] = {}
        total_bytes = 0
        for machine_id, connection in enumerate(self._connections):
            kind, data = epoch_message(
                self._assignments[machine_id], replacements, epoch, self._shm_store, seed_keys
            )
            if not data:
                continue
            if kind == "apply_shm":
                leases[machine_id] = data
            payload = pickle.dumps((kind, (epoch, data), time.perf_counter()))
            total_bytes += len(payload)
            try:
                connection.send_bytes(payload)
            except (BrokenPipeError, OSError):
                raise ClusterError(
                    f"worker {machine_id} is gone; the cluster is unusable"
                ) from None
            involved.append(machine_id)

        swapped: list[int] = []
        for machine_id in involved:
            kind, body, wire_bytes = self._receive(
                self._connections[machine_id],
                timeout_seconds,
                machine_id,
                self._network_model,
            )
            if kind == "error":
                raise ClusterError(f"worker {machine_id} failed to apply:\n{body}")
            if kind != "applied":  # pragma: no cover - protocol guard
                raise ClusterError(
                    f"worker {machine_id} sent {kind!r} instead of an epoch ack"
                )
            acked_epoch, machine_swapped, _elapsed = body
            if acked_epoch != epoch:  # pragma: no cover - protocol guard
                raise ClusterError(
                    f"worker {machine_id} acked epoch {acked_epoch}, expected {epoch}"
                )
            swapped.extend(machine_swapped)
            total_bytes += wire_bytes
            if machine_id in leases:
                # The ack proves the serial worker holds no old-epoch
                # reads; its lease moves forward and fully superseded
                # segments are unlinked.
                self._shm_store.lease(machine_id, leases[machine_id])
        self.current_epoch = epoch
        return {
            "epoch": epoch,
            "swapped_fragments": sorted(swapped),
            "segments_published": segments_shipped(leases),
            "total_message_bytes": total_bytes,
            "wall_seconds": time.perf_counter() - started,
        }
