"""Wiring fragments, indexes and machines into a simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.coverage import FragmentRuntime, sum_cache_stats
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import QClassQuery
from repro.dist.coordinator import ClusterResponse, Coordinator
from repro.dist.machine import WorkerMachine
from repro.dist.messages import ApplyUpdatesMessage, EpochAckMessage
from repro.dist.network import COORDINATOR_ID, NetworkModel, TrafficLedger
from repro.exceptions import ClusterError

__all__ = ["SimulatedCluster"]


@dataclass
class SimulatedCluster:
    """A coordinator plus its workers, ready to answer queries.

    Use :meth:`from_fragments` to assemble one.  Fragments are assigned
    to machines round-robin, which reproduces the paper's default of one
    fragment per machine when ``num_machines == len(fragments)`` and
    degrades gracefully (serial tasks per machine) otherwise.
    """

    coordinator: Coordinator
    current_epoch: int = field(default=0)

    @classmethod
    def from_fragments(
        cls,
        fragments: list[Fragment],
        indexes: list[NPDIndex],
        *,
        num_machines: int | None = None,
        network: NetworkModel | None = None,
        cache_capacity: int = 0,
        compiled: bool = True,
    ) -> "SimulatedCluster":
        """Build a cluster hosting ``fragments`` with their ``indexes``."""
        if len(fragments) != len(indexes):
            raise ClusterError(
                f"{len(fragments)} fragments but {len(indexes)} indexes"
            )
        if num_machines is None:
            num_machines = len(fragments)
        if num_machines < 1:
            raise ClusterError("a cluster needs at least one worker machine")
        if num_machines > len(fragments):
            num_machines = len(fragments)

        machines = [WorkerMachine(machine_id=m) for m in range(num_machines)]
        for i, (fragment, index) in enumerate(zip(fragments, indexes)):
            machines[i % num_machines].host(
                FragmentRuntime(
                    fragment,
                    index,
                    cache_capacity=cache_capacity,
                    compiled=compiled,
                )
            )

        coordinator = Coordinator(
            machines=machines,
            network=network or NetworkModel(),
            ledger=TrafficLedger(),
        )
        return cls(coordinator=coordinator)

    @property
    def num_machines(self) -> int:
        """Worker count (the coordinator is not counted)."""
        return len(self.coordinator.machines)

    @property
    def ledger(self) -> TrafficLedger:
        """The cluster's traffic ledger."""
        return self.coordinator.ledger

    def coverage_cache_stats(self) -> dict[str, int]:
        """Coverage-cache counters summed over every hosted runtime."""
        return sum_cache_stats(
            runtime for machine in self.coordinator.machines for runtime in machine.runtimes
        )

    def execute(self, query: QClassQuery, *, trace=None) -> ClusterResponse:
        """Answer one query.

        ``trace`` (a :class:`~repro.obs.trace.TraceContext`) opts the
        query into span recording; see :meth:`Coordinator.execute`.
        """
        return self.coordinator.execute(query, trace=trace)

    def apply_updates(
        self, epoch: int, replacements: list[tuple[Fragment, NPDIndex]]
    ) -> dict[str, object]:
        """Push an epoch delta to the workers hosting the changed fragments.

        Each worker receives one :class:`ApplyUpdatesMessage` carrying
        only its own fragments' new state, swaps its hosted runtimes
        (kernels and coverage caches drop), and acks with an
        :class:`EpochAckMessage`; both directions are metered on the
        ledger under the ``apply`` / ``epoch-ack`` kinds.
        """
        if epoch <= self.current_epoch:
            raise ClusterError(
                f"epoch must advance: cluster at {self.current_epoch}, got {epoch}"
            )
        total_bytes = 0
        swapped: list[int] = []
        for machine in self.coordinator.machines:
            hosted = set(machine.fragment_ids)
            mine = [
                (fragment, index)
                for fragment, index in replacements
                if fragment.fragment_id in hosted
            ]
            if not mine:
                continue
            message = ApplyUpdatesMessage(
                sender=COORDINATOR_ID,
                receiver=machine.machine_id,
                epoch=epoch,
                replacements=tuple(mine),
            )
            apply_bytes = message.estimated_bytes()
            self.ledger.record(COORDINATOR_ID, machine.machine_id, apply_bytes, "apply")
            total_bytes += apply_bytes

            machine_swapped = machine.apply_replacements(mine)
            swapped.extend(machine_swapped)

            ack = EpochAckMessage(
                sender=machine.machine_id,
                receiver=COORDINATOR_ID,
                epoch=epoch,
                fragment_ids=tuple(machine_swapped),
                wall_seconds=0.0,
            )
            ack_bytes = ack.estimated_bytes()
            self.ledger.record(machine.machine_id, COORDINATOR_ID, ack_bytes, "epoch-ack")
            total_bytes += ack_bytes
        self.current_epoch = epoch
        return {
            "epoch": epoch,
            "swapped_fragments": sorted(swapped),
            "total_message_bytes": total_bytes,
        }
