"""Replica-group cluster: load-aware routing and exact failover.

:class:`repro.serve.PipelinedCluster` broadcasts every query to every
worker and flips into *degraded* mode when a worker dies — answers then
silently miss the dead machine's fragments.  :class:`HACluster` runs on
the same process-cluster core (:mod:`repro.dist.process_cluster`) but
routes each fragment task on its own instead of broadcasting:

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

from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.dist.network import NetworkModel
from repro.dist.process_cluster import ProcessClusterCore
from repro.dist.replication import ROUTING_POLICIES, ReplicaPlacement
from repro.exceptions import ClusterError

__all__ = ["HACluster"]

_DEFAULT_TIMEOUT = 120.0


class HACluster(ProcessClusterCore):
    """Replica-group worker processes behind a routing coordinator.

    The process-cluster core with per-fragment routing and failover;
    adds the HA surface: ``kill_worker``, ``ha_stats``, ``routing``,
    ``placement``.
    """

    def __init__(self, *args, placement: ReplicaPlacement, routing: str) -> None:
        super().__init__(*args)
        self._placement = placement
        self.routing = routing
        self._rr_ids = itertools.count()
        machines = range(self.num_machines)
        self._outstanding: dict[int, int] = {m: 0 for m in machines}
        self._busy: dict[int, float] = {m: 0.0 for m in machines}
        self._reroutes = 0
        self._restarts = 0

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
        cluster = cls._launch(
            fragments,
            indexes,
            num_machines=num_machines,
            timeout_seconds=timeout_seconds,
            network_model=network_model,
            use_shm=use_shm,
            fragment_assignments=placement.assignments(),
            placement=placement,
            routing=routing,
        )
        for machine_id, delay in (machine_delays or {}).items():
            if 0 <= machine_id < cluster.num_machines and delay > 0:
                cluster._transport.send(
                    machine_id, pickle.dumps(("config", {"machine_delay": delay}))
                )
        return cluster

    @property
    def num_fragments(self) -> int:
        """Fragments in the placement."""
        return self._placement.num_fragments

    @property
    def replication_factor(self) -> int:
        """Workers hosting each fragment."""
        return self._placement.replication_factor

    @property
    def placement(self) -> ReplicaPlacement:
        """The chained-declustering fragment → machines layout."""
        return self._placement

    def kill_worker(self, machine_id: int) -> bool:
        """Kill a worker (fault injection). Returns False if already dead."""
        if not (0 <= machine_id < self.num_machines):
            raise ClusterError(f"no machine {machine_id}")
        with self._lock:
            if machine_id in self._dead:
                return False
        self._transport.kill(machine_id)
        return True

    def ha_stats(self) -> dict[str, object]:
        """Replication state for the ``stats`` op and Prometheus gauges."""
        with self._lock:
            alive = self._alive_machines()
            replicas_alive = [
                sum(1 for m in machines if m in alive)
                for machines in self._placement.replicas
            ]
            return {
                "replication_factor": self._placement.replication_factor,
                "routing": self.routing,
                "machines": self.num_machines,
                "machines_alive": len(alive),
                "dead_machines": sorted(self._dead),
                "replicas_alive_min": min(replicas_alive, default=0),
                "fragments_unservable": sum(1 for n in replicas_alive if n == 0),
                "reroutes": self._reroutes,
                "failovers": len(self._dead),
                "restarts": self._restarts,
                "outstanding_tasks": {
                    m: 0 if m in self._dead else n for m, n in self._outstanding.items()
                },
                "busy_seconds": {m: round(s, 6) for m, s in self._busy.items()},
            }

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _route(self, fragment_ids, alive, current):
        """Least-busy (or round-robin) alive replica per fragment.

        Load is outstanding tasks, then accumulated busy-seconds, then
        machine id; ``current`` (tasks staying put) adds to it so a
        reroute doesn't pile onto an already-loaded survivor.  The pick
        itself is :meth:`ReplicaPlacement.plan`'s.  Routed tasks count
        as outstanding *before* anything is sent: a fast worker's reply
        must never decrement first and leave a phantom.
        """
        total_busy = sum(self._busy.values()) + 1.0
        load = {m: self._outstanding[m] + self._busy[m] / total_busy for m in alive}
        for m in (current or {}).values():
            if m in load:
                load[m] += 1.0
        start = next(self._rr_ids)
        servable = [
            fid for fid in fragment_ids
            if not alive.isdisjoint(self._placement.machines_of(fid))
        ]
        if not servable:
            return {}
        routed = self._placement.plan(
            servable, alive, load=load, policy=self.routing, start=start
        )
        for machine_id in routed.values():
            self._outstanding[machine_id] += 1
        return routed

    def _note_reply(self, machine_id, tasks, elapsed):
        # Even forgotten/stale replies count: the machine did the work.
        self._outstanding[machine_id] = max(0, self._outstanding[machine_id] - tasks)
        self._busy[machine_id] += elapsed

    def _reassign(self, inflight, owed, alive):
        """Reroute the dead worker's tasks, or restart the whole query.

        If no apply fanned out since this query's own fan-out
        (``apply_seq`` unchanged), surviving replicas serve the same
        epoch, so only the owed tasks move; the attempt number still
        bumps (``attempt > 0`` marks every failover-touched query) but
        ``valid_from`` stays put, so replies from the original dispatch
        remain mergeable.  Otherwise the partials may span epochs: the
        query restarts under a fresh attempt, discarding replies from
        before it.
        """
        inflight.attempt += 1
        if inflight.apply_seq == self._apply_seq:
            routed = self._route(owed, alive, inflight.awaiting)
            self._reroutes += len(routed)
            for fid in owed:
                if fid not in routed:  # every replica of it is gone
                    inflight.degraded = True
                    del inflight.awaiting[fid]
            inflight.awaiting.update(routed)
            return routed
        self._restarts += 1
        inflight.valid_from = inflight.attempt
        inflight.apply_seq = self._apply_seq
        inflight.runs.clear()
        inflight.fragment_seconds.clear()
        inflight.partials.clear()
        if inflight.trace is not None:
            # Stage blocks of discarded work go; only the root stays, so
            # the restarted tree reads cleanly.
            inflight.trace.restart()
        routed = self._route(self._fragment_ids, alive, None)
        inflight.awaiting = dict(routed)
        inflight.degraded = len(routed) < len(self._fragment_ids)
        return routed
