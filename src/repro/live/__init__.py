"""repro.live — epoch-versioned online index updates.

The paper's system builds its NPD-index once, offline, over a frozen
road network.  This package makes the deployment *live*: typed update
operations (:mod:`repro.live.ops`) stream through a replayable
write-ahead log (:mod:`repro.live.log`) into an
:class:`~repro.live.epochs.EpochManager`, which applies each batch to a
shadow copy of the per-fragment state and publishes the result as epoch
``N+1`` with a single atomic swap — queries in flight keep draining on
epoch ``N`` and never observe a half-applied index.

Distribution glue lives elsewhere: the clusters
(:mod:`repro.dist.cluster`, :mod:`repro.dist.process_cluster`,
:mod:`repro.serve.pipeline`) accept ``apply_updates`` deltas, and the
serve layer (:mod:`repro.serve.server`) exposes ``update`` / ``epoch``
wire ops.
"""

from repro.live.epochs import EpochDelta, EpochManager, EpochState, EpochSwap
from repro.live.log import LogRecord, UpdateLog, write_ops
from repro.live.ops import (
    AddKeyword,
    RemoveKeyword,
    SetEdgeWeight,
    UpdateOp,
    op_from_record,
)

__all__ = [
    "AddKeyword",
    "RemoveKeyword",
    "SetEdgeWeight",
    "UpdateOp",
    "op_from_record",
    "UpdateLog",
    "LogRecord",
    "write_ops",
    "EpochDelta",
    "EpochManager",
    "EpochState",
    "EpochSwap",
]
