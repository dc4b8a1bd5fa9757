"""Epoch-versioned state management for live index updates.

The :class:`EpochManager` is the single writer of a deployment's
(network, fragments, indexes) triple.  Updates apply in batches:

1. **validate** — every op in the batch is checked against the current
   network; a bad op rejects the whole batch before anything mutates;
2. **shadow apply** — the per-fragment state is copied (fragment list +
   :meth:`NPDIndex.copy` per index) and a
   :class:`~repro.core.maintenance.KeywordMaintainer` mutates the copy:
   keyword ops patch DL entries incrementally, edge-weight ops run
   impact analysis and rebuild the affected fragments.  Readers of the
   current epoch see none of it;
3. **publish** — the shadow becomes :class:`EpochState` ``N+1`` via a
   single attribute assignment (atomic under the GIL), subscribers
   (cluster glue, serve layer) are notified with the minimal delta —
   the ``(fragment, index)`` pairs that actually changed — and the
   write-ahead log records a commit marker.

Queries running against epoch ``N`` keep their references and drain
untouched; new queries pick up ``N+1``.  There is no epoch in between,
so a torn index (old SC with new DL, half-patched entries) is
unobservable by construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.coverage import FragmentRuntime
from repro.core.fragment import Fragment
from repro.core.maintenance import KeywordMaintainer
from repro.core.npd import NPDIndex
from repro.exceptions import LiveUpdateError
from repro.graph.road_network import RoadNetwork
from repro.live.log import UpdateLog
from repro.live.ops import UpdateOp
from repro.obs.events import emit as emit_event
from repro.partition.base import Partition
from repro.search.dense import DenseSearch

__all__ = ["EpochState", "EpochDelta", "EpochSwap", "EpochManager"]


class EpochDelta(dict):
    """``{fragment_id: (fragment, index)}`` of one swap, plus its scope.

    ``seed_keys`` maps every changed fragment to the keywords / DL-node
    keys whose seed lists the batch rewrote — or is ``None`` when any
    fragment was rebuilt (an edge-weight op), in which case nothing
    narrower than the whole pairs describes the change.
    """

    seed_keys: dict[int, frozenset] | None = None


# Subscriber signature: (new state, delta) where delta maps each changed
# fragment id to its new (fragment, index) pair.
EpochSubscriber = Callable[["EpochState", EpochDelta], None]

# Swap subscribers additionally receive the full EpochSwap report —
# changed keywords and the topology flag drive subscription routing
# (repro.sub) without re-parsing the op batch.
SwapSubscriber = Callable[
    ["EpochState", dict[int, tuple[Fragment, NPDIndex]], "EpochSwap"], None
]


@dataclass(frozen=True)
class EpochState:
    """One immutable published version of the deployment state."""

    epoch: int
    network: RoadNetwork
    partition: Partition
    fragments: tuple[Fragment, ...]
    indexes: tuple[NPDIndex, ...]

    def runtimes(self, cache_capacity: int = 0) -> list[FragmentRuntime]:
        """Fresh query runtimes over this epoch's fragments."""
        return [
            FragmentRuntime(f, i, cache_capacity=cache_capacity)
            for f, i in zip(self.fragments, self.indexes)
        ]

    def delta_from(self, changed: Iterable[int]) -> dict[int, tuple[Fragment, NPDIndex]]:
        """The ``{fragment_id: (fragment, index)}`` delta for ``changed``."""
        return {fid: (self.fragments[fid], self.indexes[fid]) for fid in changed}


@dataclass(frozen=True)
class EpochSwap:
    """Report of one published epoch transition.

    ``changed_keywords`` are the keywords touched by keyword ops in the
    batch and ``topology_changed`` is whether any edge-weight op ran —
    together with ``changed_fragments`` they are exactly what the
    standing-query router (:mod:`repro.sub.registry`) needs to map a
    swap to the affected subscription set.
    """

    epoch: int
    num_ops: int
    ops_by_kind: dict[str, int]
    changed_fragments: tuple[int, ...]
    apply_seconds: float
    swap_seconds: float
    changed_keywords: tuple[str, ...] = ()
    topology_changed: bool = False
    # The changed fragments whose whole compiled state had to be shipped
    # again; empty when the batch was keyword-only (seed lists patched).
    republished_fragments: tuple[int, ...] = ()
    # One ack summary per bound cluster that swapped during this apply
    # (replica clusters report which machines acked — the HA audit trail
    # that an epoch reached every replica).
    cluster_acks: tuple[dict, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form for metrics and the serve layer."""
        return {
            "epoch": self.epoch,
            "num_ops": self.num_ops,
            "ops_by_kind": dict(self.ops_by_kind),
            "changed_fragments": list(self.changed_fragments),
            "apply_seconds": self.apply_seconds,
            "swap_seconds": self.swap_seconds,
            "changed_keywords": list(self.changed_keywords),
            "topology_changed": self.topology_changed,
            "republished_fragments": list(self.republished_fragments),
            "cluster_acks": [dict(ack) for ack in self.cluster_acks],
        }


@dataclass
class EpochManager:
    """Single-writer epoch pipeline: shadow-apply, then atomically swap.

    Thread safety: :meth:`apply` serialises writers behind a lock;
    :attr:`state` is a lock-free read (readers grab the reference once
    and use that epoch consistently).  Subscribers run inside the apply
    lock, *after* the swap — they see the new state and can push deltas
    to remote workers before the next batch starts.
    """

    network: RoadNetwork
    partition: Partition
    fragments: Sequence[Fragment]
    indexes: Sequence[NPDIndex]
    log: UpdateLog | None = None
    _state: EpochState = field(init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _subscribers: list[EpochSubscriber] = field(default_factory=list, init=False, repr=False)
    _swap_subscribers: list[SwapSubscriber] = field(
        default_factory=list, init=False, repr=False
    )
    _history: list[EpochSwap] = field(default_factory=list, init=False, repr=False)
    # Ack summaries collected from bound clusters during the current
    # apply; drained into EpochSwap.cluster_acks.  Guarded by _lock
    # (subscribers run inside it).
    _pending_acks: list[dict] = field(default_factory=list, init=False, repr=False)
    # The current epoch's forward row view, handed from each batch's
    # maintainer to the next (it outlives keyword edits; an edge-weight
    # op replaces it).  Built by the first apply; guarded by _lock.
    _search: DenseSearch | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.fragments) != len(self.indexes):
            raise LiveUpdateError("fragments and indexes must align")
        self._state = EpochState(
            epoch=0,
            network=self.network,
            partition=self.partition,
            fragments=tuple(self.fragments),
            indexes=tuple(self.indexes),
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def state(self) -> EpochState:
        """The current published epoch (atomic reference read)."""
        return self._state

    @property
    def epoch(self) -> int:
        """The current epoch number."""
        return self._state.epoch

    @property
    def history(self) -> tuple[EpochSwap, ...]:
        """Reports of every swap published so far."""
        return tuple(self._history)

    def subscribe(self, subscriber: EpochSubscriber) -> None:
        """Call ``subscriber(state, delta)`` after every published swap.

        Subscriber exceptions are *non-fatal*: the swap is already
        published when subscribers run, so a broken subscriber must not
        wedge epoch progression for the whole cluster — failures are
        recorded as ``subscriber_error`` obs events instead.
        """
        self._subscribers.append(subscriber)

    def subscribe_swaps(self, subscriber: SwapSubscriber) -> None:
        """Call ``subscriber(state, delta, swap)`` after every swap.

        The richer channel used by the standing-query engine
        (:class:`repro.sub.engine.SubscriptionEngine`): the
        :class:`EpochSwap` carries the changed keywords and the
        topology flag that drive subscription routing.  Same non-fatal
        error policy as :meth:`subscribe`.
        """
        self._swap_subscribers.append(subscriber)

    def bind_cluster(self, cluster) -> EpochSubscriber:
        """Subscribe a cluster so every swap pushes its delta to workers.

        ``cluster`` needs an ``apply_updates(epoch, replacements,
        seed_keys=...)`` method (the process clusters:
        :class:`repro.serve.PipelinedCluster`, :class:`repro.ha.HACluster`),
        which lets a keyword-only swap ship seed-list patches instead of
        whole fragments.  Returns the registered subscriber so callers
        can :meth:`unsubscribe` when the cluster shuts down before the
        manager does.
        """

        cluster_name = type(cluster).__name__

        def _push(state: EpochState, delta: EpochDelta) -> None:
            if delta:
                summary = cluster.apply_updates(
                    state.epoch, list(delta.values()), seed_keys=delta.seed_keys
                )
                if isinstance(summary, dict):
                    self._pending_acks.append({"cluster": cluster_name, **summary})

        _push.__qualname__ = f"bind_cluster({cluster_name})"
        self.subscribe(_push)
        return _push

    def unsubscribe(self, subscriber) -> bool:
        """Remove a subscriber registered with either subscribe method.

        Returns whether anything was removed (idempotent otherwise).
        """
        removed = False
        for listing in (self._subscribers, self._swap_subscribers):
            try:
                listing.remove(subscriber)
                removed = True
            except ValueError:
                pass
        return removed

    def _notify(self, subscriber, *args) -> None:
        """Run one subscriber; failures become obs events, not errors."""
        try:
            subscriber(*args)
        except Exception as exc:
            emit_event(
                "subscriber_error",
                epoch=args[0].epoch,
                subscriber=getattr(subscriber, "__qualname__", repr(subscriber)),
                error=f"{type(exc).__name__}: {exc}",
            )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def apply(self, ops: Sequence[UpdateOp]) -> EpochSwap:
        """Apply one batch and publish the next epoch.

        All-or-nothing: validation failures (and any apply error) leave
        the current epoch untouched and raise :class:`LiveUpdateError`.
        """
        ops = list(ops)
        if not ops:
            raise LiveUpdateError("empty update batch")
        with self._lock:
            base = self._state
            for op in ops:
                op.validate(base.network)
            if self.log is not None:
                for op in ops:
                    self.log.append(op)

            apply_started = time.perf_counter()
            maintainer = KeywordMaintainer(
                network=base.network,
                partition=base.partition,
                fragments=list(base.fragments),
                indexes=[index.copy() for index in base.indexes],
                search=self._search,
            )
            changed: set[int] = set()
            for op in ops:
                try:
                    changed.update(op.apply(maintainer))
                except LiveUpdateError:
                    raise
                except Exception as exc:  # pragma: no cover - defensive
                    raise LiveUpdateError(f"applying {op!r} failed: {exc}") from exc
            seed_keys = None
            if not maintainer.rebuilt:
                seed_keys = {fid: frozenset(maintainer.seed_keys[fid]) for fid in changed}
            apply_seconds = time.perf_counter() - apply_started

            if self.log is not None:
                # Committed before it is visible: a reader (or subscriber)
                # that sees epoch N+1 can rely on recovery replaying it.
                self.log.commit(base.epoch + 1, len(ops))

            swap_started = time.perf_counter()
            new_state = EpochState(
                epoch=base.epoch + 1,
                network=maintainer.network,
                partition=base.partition,
                fragments=tuple(maintainer.fragments),
                indexes=tuple(maintainer.indexes),
            )
            self._state = new_state  # the atomic swap: readers now see N+1
            self._search = maintainer.search
            delta = EpochDelta(new_state.delta_from(sorted(changed)))
            delta.seed_keys = seed_keys
            self._pending_acks.clear()
            for subscriber in list(self._subscribers):
                self._notify(subscriber, new_state, delta)
            cluster_acks = tuple(self._pending_acks)
            self._pending_acks.clear()
            swap_seconds = time.perf_counter() - swap_started

            ops_by_kind: dict[str, int] = {}
            keywords: set[str] = set()
            topology = False
            for op in ops:
                ops_by_kind[op.kind] = ops_by_kind.get(op.kind, 0) + 1
                keyword = getattr(op, "keyword", None)
                if keyword is not None:
                    keywords.add(keyword)
                else:
                    topology = True
            swap = EpochSwap(
                epoch=new_state.epoch,
                num_ops=len(ops),
                ops_by_kind=ops_by_kind,
                changed_fragments=tuple(sorted(changed)),
                apply_seconds=apply_seconds,
                swap_seconds=swap_seconds,
                changed_keywords=tuple(sorted(keywords)),
                topology_changed=topology,
                republished_fragments=() if seed_keys is not None else tuple(delta),
                cluster_acks=cluster_acks,
            )
            self._history.append(swap)
            # Structured obs event so `repro trace` can interleave epoch
            # swaps with traced queries on the shared monotonic clock.
            emit_event(
                "epoch_swap",
                epoch=swap.epoch,
                num_ops=swap.num_ops,
                changed_fragments=list(swap.changed_fragments),
                apply_ms=swap.apply_seconds * 1000.0,
                swap_ms=swap.swap_seconds * 1000.0,
            )
            # Swap subscribers (the standing-query engine) run last so
            # their re-evaluation work is excluded from swap_seconds.
            for subscriber in list(self._swap_subscribers):
                self._notify(subscriber, new_state, delta, swap)
            return swap

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        network: RoadNetwork,
        partition: Partition,
        fragments: Sequence[Fragment],
        indexes: Sequence[NPDIndex],
        log: UpdateLog,
    ) -> tuple["EpochManager", list[UpdateOp]]:
        """Rebuild a manager by replaying the committed log prefix.

        The given state must be the epoch-0 (pre-log) build.  Committed
        batches re-apply in order — reproducing the pre-crash epoch
        sequence — while the replay itself is kept out of the log (no
        double-append).  Returns ``(manager, pending)`` where
        ``pending`` holds the uncommitted tail ops for the caller to
        re-submit or drop.
        """
        committed, pending = log.replay()
        manager = cls(
            network=network,
            partition=partition,
            fragments=fragments,
            indexes=indexes,
        )
        for record in committed:
            swap = manager.apply(record.ops)
            if swap.epoch != record.epoch:
                raise LiveUpdateError(
                    f"replay drift: log committed epoch {record.epoch}, "
                    f"replay produced {swap.epoch}"
                )
        manager.log = log
        return manager, list(pending)
