"""The paper's cluster in process: the serving coordinator over handlers.

:class:`SimulatedCluster` is :class:`~repro.dist.process_cluster.
ProcessClusterCore` — the coordinator the serving tier runs — over an
:class:`InProcessTransport`: each machine is a
:class:`~repro.dist.process_cluster.WorkerHandler`, the object a serving
worker process runs, and the frames are the ones the core writes to its
pipes.  The handlers run one after another in this process, without
sleeping, and every query frame's real length is recorded on the
:class:`TrafficLedger`.

Response time is priced the way the serving tier's ``emulate_delivery``
delivers messages (§5.1: makespan plus a 100 Mb link): machines run
concurrently and transfers overlap, so a query's response is the
maximum over machines of ``transfer(task frame) + machine seconds +
transfer(result frame)``.  A machine's seconds are the CPU time its
handler call took — decoding the frame, running the tasks, encoding the
reply — since wall time on a shared host also bills the moments this
process was descheduled.  The cycle collector is held off for the call:
every simulated machine shares this one heap, so a collection would
walk all of them and bill it to one machine.
"""

from __future__ import annotations

import gc
import time
from array import array
from collections import deque
from dataclasses import dataclass

from repro.core.executor import FragmentTaskResult
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import QClassQuery
from repro.core.runs import RunAnswer
from repro.dist.network import COORDINATOR_ID, NetworkModel, TrafficLedger
from repro.dist.process_cluster import (
    ProcessClusterCore,
    WorkerHandler,
    build_worker_runtimes,
)
from repro.dist.replication import ReplicaPlacement
from repro.exceptions import ClusterError
from repro.obs.trace import Span, TraceContext

__all__ = [
    "InProcessTransport",
    "SimulatedCluster",
    "SimulatedResponse",
    "ReplicatedCluster",
]


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


class InProcessTransport:
    """In-process handlers behind FIFO inboxes; no threads.

    :meth:`send` only enqueues, so delivery never re-enters the core
    from inside a send.  Whoever calls :meth:`step` picks the
    interleaving; :meth:`run` drains the machines in id order.
    """

    def __init__(self, handlers: list[WorkerHandler]) -> None:
        self.handlers = handlers
        self.inboxes: list[deque[bytes]] = [deque() for _ in handlers]
        # One (machine, task bytes, reply bytes, busy, tasks) per step.
        self.log: list[tuple[int, int, int, float, list[FragmentTaskResult]]] = []
        self._core: ProcessClusterCore | None = None

    def attach(self, core: ProcessClusterCore) -> None:
        """Deliver replies and deaths to ``core``."""
        self._core = core

    def send(self, machine_id: int, frame: bytes) -> None:
        """Queue ``frame`` in the machine's inbox."""
        self.inboxes[machine_id].append(frame)

    def step(self, machine_id: int) -> None:
        """Handle ``machine_id``'s oldest frame, log it, deliver its reply."""
        frame = self.inboxes[machine_id].popleft()
        tasks: list[FragmentTaskResult] = []
        collecting = gc.isenabled()
        gc.disable()
        started = time.thread_time()
        try:
            reply = self.handlers[machine_id].handle(frame, tasks)
        finally:
            busy = time.thread_time() - started
            if collecting:
                gc.enable()
        self.log.append((machine_id, len(frame), len(reply or b""), busy, tasks))
        if reply is not None:
            self._core._deliver(machine_id, reply)

    def run(self) -> None:
        """Step machines in id order until every inbox is empty."""
        while any(self.inboxes):
            for machine_id, inbox in enumerate(self.inboxes):
                while inbox:
                    self.step(machine_id)

    def wait(self, future, timeout_seconds: float):
        """Drain every inbox; ``future`` has then resolved or never will."""
        self.run()
        return future.result(timeout=0)

    def kill(self, machine_id: int) -> None:
        """Drop the machine's inbox and report its death to the core.

        The death is known at once, so the core never sends it a frame again.
        """
        self.inboxes[machine_id].clear()
        self._core._on_worker_death(machine_id)

    def close(self, timeout_seconds: float) -> None:
        """Drop every queued frame."""
        for inbox in self.inboxes:
            inbox.clear()


class SimulatedCluster(ProcessClusterCore):
    """The serving coordinator and its worker handlers, in process.

    Use :meth:`from_fragments` to assemble one.  Fragment ``i`` lives on
    machines ``i % m``, ``(i+1) % m``, … (:meth:`ReplicaPlacement.
    chained`); with the default single replica that is round-robin, the
    paper's one fragment per machine when ``num_machines ==
    len(fragments)``.  With replicas, each query runs every fragment on
    one alive replica, picked by :meth:`ReplicaPlacement.plan`.
    """

    def __init__(
        self,
        handlers: list[WorkerHandler],
        placement: ReplicaPlacement,
        network: NetworkModel,
    ) -> None:
        super().__init__(InProcessTransport(handlers), placement.assignments())
        self.handlers = handlers
        self.placement = placement
        self.network = network
        self.ledger = TrafficLedger()
        self._failed: set[int] = set()

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
                    cache_capacity,
                )
            )
            for hosted in placement.assignments()
        ]
        return cls(handlers, placement, network or NetworkModel())

    def runtimes(self) -> list:
        """Every hosted fragment runtime, machine by machine."""
        return [runtime for handler in self.handlers for runtime in handler.runtimes]

    # ------------------------------------------------------------------
    # Failure injection: a failed machine is only routed around
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

    def _route(self, fragment_ids, alive, current):
        # Raises on a fragment with no alive replica, as the paper's
        # coordinator cannot answer without it.
        return self.placement.plan(fragment_ids, alive - self._failed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, query: QClassQuery, *, trace: TraceContext | None = None
    ) -> SimulatedResponse:
        """Answer ``query`` over one alive replica of every fragment.

        ``trace`` opts the query into span recording: a root ``query``
        span, one ``dispatch`` span per machine and, under each, the
        worker's own ``queue-wait``/``task``/``eval``/``union``/
        ``serialize`` spans — the tree the process clusters record.
        """
        log = self._transport.log
        log.clear()
        served = super().execute(query, trace=trace)
        transfer = self.network.transfer_seconds
        response = communication = 0.0
        chosen: dict[int, int] = {}
        tasks: list[FragmentTaskResult] = []
        machine_seconds: dict[int, float] = {}
        for machine_id, sent, received, busy, done in log:
            self.ledger.record(COORDINATOR_ID, machine_id, sent, "task")
            self.ledger.record(machine_id, COORDINATOR_ID, received, "result")
            link = transfer(sent) + transfer(received)
            if link + busy > response:
                response, communication = link + busy, link
            machine_seconds[machine_id] = busy
            chosen.update((task.fragment_id, machine_id) for task in done)
            tasks.extend(done)
        return SimulatedResponse(
            result_run=served.result_run,
            task_results=tuple(sorted(tasks, key=lambda task: task.fragment_id)),
            machine_seconds=machine_seconds,
            chosen_machines=dict(sorted(chosen.items())),
            response_seconds=response,
            communication_seconds=communication,
            total_message_bytes=served.message_bytes,
            spans=served.spans,
        )


# The replicated deployment is the same cluster with replication_factor > 1.
ReplicatedCluster = SimulatedCluster
