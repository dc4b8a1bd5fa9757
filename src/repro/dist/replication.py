"""Fragment replication: placement and routing.

The paper's deployment has exactly one machine per fragment; a machine
loss would make part of the answer unreachable.  Because a worker's
whole state is two immutable artefacts (the fragment and ``IND(P)``),
replication is trivial and powerful: place each fragment's runtime on
``replication_factor`` machines, and at query time have the coordinator
pick, per fragment, one *alive* replica.  The share-nothing property is
untouched — replicas never talk to each other; they are just extra
read-only copies.

:class:`ReplicaPlacement` is the pure placement/routing core: the
chained-declustering layout, replica lookup, and the per-fragment
alive-replica picker (load-aware or round-robin).  It is the single
source of truth for replica routing; the in-process
:class:`repro.dist.SimulatedCluster` (with failure injection, for tests
and the chaos ablation) and the multiprocess :class:`repro.ha.HACluster`
serving tier both plan through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.exceptions import ClusterError

__all__ = ["ReplicaPlacement"]

ROUTING_POLICIES = ("load", "rr")


@dataclass(frozen=True)
class ReplicaPlacement:
    """Which machines host which fragments, plus the routing picker.

    ``replicas[i]`` is the tuple of machine ids hosting fragment ``i``.
    The layout is chained declustering — fragment ``i`` lands on
    machines ``i % m``, ``(i+1) % m``, … — which is automatically
    anti-affine (no machine holds two replicas of the same fragment)
    whenever ``replication_factor <= num_machines``.
    """

    replicas: tuple[tuple[int, ...], ...]
    num_machines: int
    replication_factor: int

    @classmethod
    def chained(
        cls,
        num_fragments: int,
        num_machines: int,
        replication_factor: int = 2,
    ) -> "ReplicaPlacement":
        """The classic chained-declustering layout."""
        if num_machines < 1:
            raise ClusterError("need at least one machine")
        if not (1 <= replication_factor <= num_machines):
            raise ClusterError(
                f"replication factor {replication_factor} must be in "
                f"[1, {num_machines}]"
            )
        replicas = tuple(
            tuple((i + j) % num_machines for j in range(replication_factor))
            for i in range(num_fragments)
        )
        return cls(
            replicas=replicas,
            num_machines=num_machines,
            replication_factor=replication_factor,
        )

    @property
    def num_fragments(self) -> int:
        return len(self.replicas)

    def machines_of(self, fragment_id: int) -> tuple[int, ...]:
        """Machine ids hosting ``fragment_id`` (alive or not)."""
        if 0 <= fragment_id < len(self.replicas):
            return self.replicas[fragment_id]
        return ()

    def fragments_of(self, machine_id: int) -> tuple[int, ...]:
        """Fragment ids hosted by ``machine_id``, in fragment order."""
        return tuple(
            i for i, machines in enumerate(self.replicas) if machine_id in machines
        )

    def assignments(self) -> list[list[int]]:
        """Per-machine fragment-id lists, indexed by machine id."""
        return [list(self.fragments_of(m)) for m in range(self.num_machines)]

    def plan(
        self,
        fragment_ids: Iterable[int],
        alive: Iterable[int],
        *,
        load: Mapping[int, float] | None = None,
        policy: str = "load",
        start: int = 0,
    ) -> dict[int, int]:
        """Choose one alive replica per fragment.

        ``policy="load"`` picks the least-busy alive replica, breaking
        ties by machine id; ``load`` carries the caller's view of each
        machine's busyness (outstanding tasks, busy-seconds, …) and the
        plan itself adds one unit per task it assigns, so a single
        fan-out spreads even when all machines start equal.
        ``policy="rr"`` rotates over alive replicas from ``start`` —
        the load-oblivious baseline the benchmark compares against.

        Raises :class:`ClusterError` if no machine is alive at all, or
        names the first fragment with no alive replica.
        """
        if policy not in ROUTING_POLICIES:
            raise ClusterError(f"unknown routing policy {policy!r}")
        alive_set = set(alive)
        if not alive_set:
            raise ClusterError("every machine has failed")
        failed = sorted(set(range(self.num_machines)) - alive_set)
        running: dict[int, float] = {m: 0.0 for m in alive_set}
        if load:
            for machine_id, busy in load.items():
                if machine_id in running:
                    running[machine_id] += busy
        placement: dict[int, int] = {}
        for fragment_id in fragment_ids:
            candidates = [m for m in self.machines_of(fragment_id) if m in alive_set]
            if not candidates:
                raise ClusterError(
                    f"fragment {fragment_id} has no alive replica "
                    f"(replication={self.replication_factor}, "
                    f"failed={failed})"
                )
            if policy == "rr":
                chosen = candidates[(start + fragment_id) % len(candidates)]
            else:
                chosen = min(candidates, key=lambda m: (running[m], m))
            placement[fragment_id] = chosen
            running[chosen] += 1.0
        return placement
