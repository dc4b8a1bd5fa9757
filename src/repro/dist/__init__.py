"""Coordinator-based share-nothing cluster substrate.

The paper evaluates on 16 machines behind a 100 Mb switch.  One worker,
:class:`~repro.dist.process_cluster.WorkerHandler`, answers one
coordinator, :class:`~repro.dist.process_cluster.ProcessClusterCore`,
over either of two transports:

* :class:`SimulatedCluster` runs the handlers in process and prices the
  real frames on a modelled link (:class:`NetworkModel`): the
  distributed response time is the maximum over machines of task
  transfer + the machine's CPU time + result transfer.  Every query
  frame is metered by a :class:`TrafficLedger`, which *enforces* the
  paper's zero worker-to-worker communication guarantee (Theorem 3).
  The paper's experiments run on it; with ``replication_factor > 1`` it
  is the replicated deployment with failure injection.
* :mod:`repro.dist.process_cluster` forks them behind pipes: the
  transport both serving clusters run on.

:class:`ReplicaPlacement` routes replicas.  Index construction is
fragment-parallel in :func:`repro.core.builder.build_all_indexes`.
"""

from repro.dist.network import NetworkModel, TrafficLedger, Transfer
from repro.dist.replication import ReplicaPlacement
from repro.dist.cluster import ReplicatedCluster, SimulatedCluster, SimulatedResponse

__all__ = [
    "ReplicaPlacement",
    "ReplicatedCluster",
    "NetworkModel",
    "TrafficLedger",
    "Transfer",
    "SimulatedCluster",
    "SimulatedResponse",
]
