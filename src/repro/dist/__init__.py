"""Coordinator-based share-nothing cluster substrate.

The paper evaluates on 16 machines behind a 100 Mb switch.  One worker,
:class:`~repro.dist.process_cluster.WorkerHandler`, answers the
coordinator's frames; it has two transports:

* :class:`SimulatedCluster` calls it in process, one machine after
  another, and prices the real frames on a modelled link
  (:class:`NetworkModel`): the distributed response time is the maximum
  over machines of task transfer + the machine's CPU time + result
  transfer.  Every frame is metered by a :class:`TrafficLedger`, which
  *enforces* the paper's zero worker-to-worker communication guarantee
  (Theorem 3).  The paper's experiments run on it; with
  ``replication_factor > 1`` it is the replicated deployment with
  failure injection (:class:`ReplicaPlacement` routes).
* :mod:`repro.dist.process_cluster` runs it in forked worker processes
  behind pipes: the core both serving clusters are built on.

:mod:`repro.dist.parallel` builds indexes in a process pool.
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
