"""Pipelined serving cluster: every query broadcast, many in flight.

The paper's motivation is query *throughput* under concurrent load
(§1), which needs the workers busy continuously.  :class:`PipelinedCluster`
runs the process-cluster core (:mod:`repro.dist.process_cluster`) with
the simplest placement: fragments round-robin over the workers, one
copy each, and every query broadcast as one shared binary payload.

* every query message carries a coordinator-assigned ``request_id`` and
  every reply echoes it back, so replies may arrive in any order and
  any interleaving across queries;
* one **dispatcher thread per worker** matches replies to the
  :class:`concurrent.futures.Future` registered at submit time;
* :meth:`PipelinedCluster.submit` therefore returns immediately — any
  number of queries can be in flight, and each worker drains its input
  pipe back-to-back (total time ``max_m Σ_q τ_qm`` rather than the
  lockstep ``Σ_q max_m τ_qm``).  Lockstep is serial :meth:`execute`.

Worker-crash semantics: a dispatcher that sees EOF on its pipe marks
the worker dead, fails *only the in-flight queries still awaiting that
worker* with :class:`ClusterError`, and flips the cluster into degraded
mode — subsequent queries run on the surviving workers and carry
``degraded=True`` (their answers miss the dead machine's fragments)
instead of hanging the coordinator.  An apply to a worker that dies
mid-swap completes on the survivors.
"""

from __future__ import annotations

from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.dist.network import NetworkModel
from repro.dist.process_cluster import (
    PendingApply,
    PendingQuery,
    PipelinedResponse,
    ProcessClusterCore,
)
from repro.exceptions import ClusterError

__all__ = ["PipelinedResponse", "PendingQuery", "PendingApply", "PipelinedCluster"]

_DEFAULT_TIMEOUT = 120.0


class PipelinedCluster(ProcessClusterCore):
    """Round-robin workers; each query broadcast; a death degrades."""

    @classmethod
    def start(
        cls,
        fragments: list[Fragment],
        indexes: list[NPDIndex],
        *,
        num_machines: int | None = None,
        timeout_seconds: float = _DEFAULT_TIMEOUT,
        network_model: NetworkModel | None = None,
        use_shm: bool = False,
        pipe_wire: str = "binary",
    ) -> "PipelinedCluster":
        """Fork the workers, handshake, then start the dispatchers.

        ``network_model`` makes workers emulate the modelled link by
        sleeping for each message's transfer time (see
        :func:`~repro.dist.process_cluster.spawn_workers`); pipelining
        then overlaps those transfers across in-flight queries, which is
        precisely the dispatch win this class exists for.  ``use_shm``
        hands fragments to workers as shared-memory segment manifests
        (:mod:`repro.shm`) instead of pickled state.  ``pipe_wire`` names
        the encoding of untraced query traffic; ``"binary"`` is the only
        one.
        """
        if pipe_wire != "binary":
            raise ClusterError(f"unknown pipe wire encoding {pipe_wire!r}")
        return cls._launch(
            fragments,
            indexes,
            num_machines=num_machines,
            timeout_seconds=timeout_seconds,
            network_model=network_model,
            use_shm=use_shm,
        )

    def _route(self, fragment_ids, alive, current):
        # One copy per fragment: its only host, while that host lives.
        return {
            fragment_id: host
            for fragment_id in fragment_ids
            if (host := self._hosts[fragment_id][0]) in alive
        }
