"""Coordinator-based share-nothing cluster substrate.

The paper evaluates on 16 machines behind a 100 Mb switch.  This
subpackage simulates that deployment faithfully enough to reproduce the
experiment shapes on one host:

* every fragment task runs and is *timed independently* (per-machine
  work), and the distributed response time is the makespan under the
  §5.2 scheduling strategy plus a modelled coordinator round-trip;
* every byte that would cross the network is metered by a
  :class:`TrafficLedger`, which *enforces* the paper's zero
  worker-to-worker communication guarantee (Theorem 3);
* :mod:`repro.dist.parallel` additionally runs tasks in real OS
  processes for genuine parallelism, and
  :mod:`repro.dist.process_cluster` is the worker loop and coordinator
  core both serving clusters run on.
"""

from repro.dist.messages import (
    ApplyUpdatesMessage,
    AttachSegmentsMessage,
    EpochAckMessage,
    Message,
    QueryTaskMessage,
    TaskResultMessage,
)
from repro.dist.network import NetworkModel, TrafficLedger, Transfer
from repro.dist.machine import WorkerMachine
from repro.dist.coordinator import Coordinator, ClusterResponse
from repro.dist.cluster import SimulatedCluster
from repro.dist.replication import (
    ReplicaPlacement,
    ReplicatedCluster,
    ReplicatedClusterResponse,
)

__all__ = [
    "ReplicaPlacement",
    "ReplicatedCluster",
    "ReplicatedClusterResponse",
    "Message",
    "QueryTaskMessage",
    "TaskResultMessage",
    "ApplyUpdatesMessage",
    "AttachSegmentsMessage",
    "EpochAckMessage",
    "NetworkModel",
    "TrafficLedger",
    "Transfer",
    "WorkerMachine",
    "Coordinator",
    "ClusterResponse",
    "SimulatedCluster",
]
