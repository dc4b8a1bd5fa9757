"""The paper's cluster in process: the serving worker behind a modelled link.

Each machine is a :class:`~repro.dist.process_cluster.WorkerHandler` —
the same object a serving worker process runs — and the coordinator
speaks to it in the frames :class:`~repro.dist.process_cluster.
ProcessClusterCore` writes to its pipes: binary task frames for
untraced queries, pickled ones for traced queries and epoch applies.
The handlers run one after another in this process, without sleeping,
and every frame's real length is recorded on the :class:`TrafficLedger`.

Response time is priced the way the serving tier's ``emulate_delivery``
delivers messages (§5.1: makespan plus a 100 Mb link): machines run
concurrently and transfers overlap, so a query's response is the
maximum over machines of ``transfer(task frame) + machine seconds +
transfer(result frame)``, where a machine's seconds are the CPU time
its handler call took.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import time
from array import array
from dataclasses import dataclass

from repro.core.coverage import sum_cache_stats
from repro.core.executor import FragmentTaskResult
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import QClassQuery
from repro.core.runs import RunAnswer, as_run, merge_runs
from repro.dist.network import COORDINATOR_ID, NetworkModel, TrafficLedger
from repro.dist.process_cluster import (
    WorkerHandler,
    build_worker_runtimes,
    epoch_message,
    query_frame,
)
from repro.dist.replication import ReplicaPlacement
from repro.exceptions import ClusterError
from repro.obs.trace import Span, SpanCollector, TraceContext

__all__ = ["SimulatedCluster", "SimulatedResponse", "ReplicatedCluster"]


@dataclass(frozen=True)
class SimulatedResponse(RunAnswer):
    """Everything the coordinator knows after answering one query.

    Attributes
    ----------
    result_run:
        The global answer ``⋃ᵢ F(… ∩ Uᵢ)`` as one sorted run
        (``result_nodes`` is the same as a set).
    task_results:
        Per-fragment task outcomes, ordered by fragment id.
    machine_seconds:
        CPU seconds each serving machine spent on its task frame
        (decode, tasks, encode).
    chosen_machines:
        Fragment id → the machine that answered it.
    response_seconds:
        Max over machines of task transfer + machine seconds + result
        transfer.
    communication_seconds:
        The two transfers on the machine that set ``response_seconds``.
    total_message_bytes:
        Bytes of every task and result frame of this query.
    spans:
        The query's span tree (empty unless a
        :class:`~repro.obs.trace.TraceContext` was passed).
    """

    result_run: array
    task_results: tuple[FragmentTaskResult, ...]
    machine_seconds: dict[int, float]
    chosen_machines: dict[int, int]
    response_seconds: float
    communication_seconds: float
    total_message_bytes: int
    spans: tuple[Span, ...] = ()


class SimulatedCluster:
    """A coordinator and its worker handlers, ready to answer queries.

    Use :meth:`from_fragments` to assemble one.  Fragment ``i`` lives on
    machines ``i % m``, ``(i+1) % m``, … (:meth:`ReplicaPlacement.
    chained`); with the default single replica that is round-robin, the
    paper's one fragment per machine when ``num_machines ==
    len(fragments)``.  With replicas, each query runs every fragment on
    one alive replica, picked by :meth:`ReplicaPlacement.plan` as the
    serving tier's ``HACluster`` does.
    """

    def __init__(
        self,
        handlers: list[WorkerHandler],
        placement: ReplicaPlacement,
        network: NetworkModel,
    ) -> None:
        # Bound here, not at import: repro.serve imports the worker core.
        from repro.serve.wire import loads_pipe

        self._loads_pipe = loads_pipe
        self.handlers = handlers
        self.placement = placement
        self.network = network
        self.ledger = TrafficLedger()
        self.current_epoch = 0
        self._failed: set[int] = set()
        self._ids = itertools.count()

    @classmethod
    def from_fragments(
        cls,
        fragments: list[Fragment],
        indexes: list[NPDIndex],
        *,
        num_machines: int | None = None,
        replication_factor: int = 1,
        network: NetworkModel | None = None,
        cache_capacity: int = 0,
        compiled: bool = True,
    ) -> "SimulatedCluster":
        """Build a cluster hosting ``fragments`` with their ``indexes``.

        ``num_machines`` defaults to one per fragment and is capped there.
        """
        if len(fragments) != len(indexes):
            raise ClusterError(
                f"{len(fragments)} fragments but {len(indexes)} indexes"
            )
        if num_machines is None or num_machines > len(fragments):
            num_machines = len(fragments)
        placement = ReplicaPlacement.chained(
            len(fragments), num_machines, replication_factor
        )
        handlers = [
            WorkerHandler(
                *build_worker_runtimes(
                    "pickle",
                    [(fragments[i], indexes[i]) for i in hosted],
                    compiled,
                    cache_capacity,
                )
            )
            for hosted in placement.assignments()
        ]
        return cls(handlers, placement, network or NetworkModel())

    @property
    def num_machines(self) -> int:
        """Worker count (the coordinator is not counted)."""
        return self.placement.num_machines

    def runtimes(self) -> list:
        """Every hosted fragment runtime, machine by machine."""
        return [runtime for handler in self.handlers for runtime in handler.runtimes]

    def coverage_cache_stats(self) -> dict[str, int]:
        """Coverage-cache counters summed over every hosted runtime."""
        return sum_cache_stats(self.runtimes())

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    @property
    def failed_machines(self) -> frozenset[int]:
        """Currently failed machine ids."""
        return frozenset(self._failed)

    def _check_machine(self, machine_id: int) -> None:
        if not 0 <= machine_id < self.num_machines:
            raise ClusterError(f"no machine {machine_id}")

    def fail_machine(self, machine_id: int) -> None:
        """Mark a machine as down (idempotent)."""
        self._check_machine(machine_id)
        self._failed.add(machine_id)

    def restore_machine(self, machine_id: int) -> None:
        """Bring a machine back (idempotent)."""
        self._check_machine(machine_id)
        self._failed.discard(machine_id)

    def replicas_of(self, fragment_id: int) -> list[int]:
        """Machine ids hosting ``fragment_id`` (alive or not)."""
        return sorted(self.placement.machines_of(fragment_id))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _call(self, machine_id: int, frame: bytes, tasks: list | None = None):
        """One round trip to a handler: ``(reply length, reply body, busy seconds)``.

        ``busy`` is the CPU time the call took — decoding the frame,
        running the tasks, encoding the reply — which is what a dedicated
        machine would spend on it; wall time on a shared host also counts
        the moments this process was descheduled.  The cycle collector is
        held off meanwhile: every simulated machine (and the caller)
        shares this one heap, so a collection landing inside a task would
        walk all of them and bill it to one machine.  It runs between
        calls instead.
        """
        collecting = gc.isenabled()
        gc.disable()
        started = time.thread_time()
        try:
            reply = self.handlers[machine_id].handle(frame, tasks)
        finally:
            busy = time.thread_time() - started
            if collecting:
                gc.enable()
        kind, body, *_sent_at = self._loads_pipe(reply)
        if kind == "error":
            raise ClusterError(f"worker {machine_id} failed:\n{body[1]}")
        return len(reply), body, busy

    def execute(
        self, query: QClassQuery, *, trace: TraceContext | None = None
    ) -> SimulatedResponse:
        """Answer ``query`` over one alive replica of every fragment.

        ``trace`` opts the query into span recording: a root ``query``
        span, one ``dispatch`` span per machine and, under each, the
        worker's own ``queue-wait``/``task``/``eval``/``union``/
        ``serialize`` spans — the tree the process clusters record.
        """
        alive = set(range(self.num_machines)) - self._failed
        chosen = self.placement.plan(range(self.placement.num_fragments), alive)
        by_machine: dict[int, list[int]] = {}
        for fragment_id, machine_id in chosen.items():
            by_machine.setdefault(machine_id, []).append(fragment_id)

        collector = root = None
        if trace is not None:
            collector = SpanCollector(trace.trace_id)
            root = collector.start("query", parent_id=trace.span_id)
        request_id = next(self._ids)
        transfer = self.network.transfer_seconds
        runs: list[array] = []
        tasks: list[FragmentTaskResult] = []
        machine_seconds: dict[int, float] = {}
        total_bytes = 0
        response = communication = 0.0
        frames: dict[tuple, bytes] = {}
        for machine_id, fragment_ids in sorted(by_machine.items()):
            # A machine asked for everything it hosts gets the empty
            # list, and equal targets share one encoded frame, exactly
            # as the process coordinator broadcasts.
            names = (
                ()
                if len(fragment_ids) == len(self.handlers[machine_id].runtimes)
                else tuple(fragment_ids)
            )
            trace_wire = dispatch = None
            if collector is not None:
                dispatch = collector.start(
                    "dispatch", parent_id=root.span_id, machine_id=machine_id, attempt=0
                )
                trace_wire = (collector.trace_id, dispatch.span_id)
            frame = frames.get((names, trace_wire))
            if frame is None:
                frame = frames[names, trace_wire] = query_frame(
                    request_id, query, trace_wire, 0, names
                )
            reply_bytes, body, busy = self._call(machine_id, frame, tasks)
            _request_id, reply, _elapsed, *rest = body
            if dispatch is not None:
                worker_spans = rest[1]  # traced replies: (attempt, spans)
                for span in worker_spans:
                    span.machine_id = machine_id
                collector.extend(worker_spans)
                dispatch.finish()
            runs.extend(as_run(nodes) for _fragment_id, nodes, _seconds in reply)
            machine_seconds[machine_id] = busy

            self.ledger.record(COORDINATOR_ID, machine_id, len(frame), "task")
            self.ledger.record(machine_id, COORDINATOR_ID, reply_bytes, "result")
            total_bytes += len(frame) + reply_bytes
            link = transfer(len(frame)) + transfer(reply_bytes)
            if link + busy > response:
                response, communication = link + busy, link
        if root is not None:
            root.finish()
        return SimulatedResponse(
            result_run=merge_runs(runs),
            task_results=tuple(sorted(tasks, key=lambda r: r.fragment_id)),
            machine_seconds=machine_seconds,
            chosen_machines=chosen,
            response_seconds=response,
            communication_seconds=communication,
            total_message_bytes=total_bytes,
            spans=tuple(collector.spans) if collector is not None else (),
        )

    def apply_updates(
        self, epoch: int, replacements: list[tuple[Fragment, NPDIndex]]
    ) -> dict[str, object]:
        """Push an epoch delta to every machine hosting a changed fragment.

        Each such machine — failed ones too, so a restored machine never
        serves a stale epoch — is sent the pickled ``apply`` frame of
        its own fragments' new ``(fragment, index)`` pairs and answers
        ``applied``; both frames are metered under the ``apply`` /
        ``epoch-ack`` kinds.
        """
        if epoch <= self.current_epoch:
            raise ClusterError(
                f"epoch must advance: cluster at {self.current_epoch}, got {epoch}"
            )
        total_bytes = 0
        swapped: set[int] = set()
        for machine_id, handler in enumerate(self.handlers):
            kind, data = epoch_message(handler.hosted, replacements, epoch, None)
            if not data:
                continue
            frame = pickle.dumps(
                (kind, (next(self._ids), epoch, data), time.perf_counter())
            )
            ack_bytes, body, _busy = self._call(machine_id, frame)
            swapped.update(body[2])
            self.ledger.record(COORDINATOR_ID, machine_id, len(frame), "apply")
            self.ledger.record(machine_id, COORDINATOR_ID, ack_bytes, "epoch-ack")
            total_bytes += len(frame) + ack_bytes
        self.current_epoch = epoch
        return {
            "epoch": epoch,
            "swapped_fragments": sorted(swapped),
            "total_message_bytes": total_bytes,
        }


# The replicated deployment is the same cluster with replication_factor > 1.
ReplicatedCluster = SimulatedCluster
