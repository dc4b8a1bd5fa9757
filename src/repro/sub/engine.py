"""Delta-driven incremental re-evaluation of standing queries.

The :class:`SubscriptionEngine` hangs off an
:class:`~repro.live.epochs.EpochManager` swap subscription.  On each
published epoch it:

1. refreshes its fragment runtimes from the swap's ``delta`` (only the
   changed ``(fragment, index)`` pairs are touched);
2. asks the :class:`~repro.sub.registry.SubscriptionRegistry` which
   subscriptions the delta can affect (term ∩ fragment routing);
3. recomputes each affected subscription's *partial* results only on
   the changed fragments inside its scope — Lemma 1 makes per-fragment
   local results independent, so unchanged fragments keep their cached
   partials verbatim;
4. diffs the re-unioned result against the last materialized one and
   pushes an ``added`` / ``removed`` / ``rescored`` notice to the
   subscription's sink.

Exactness rests on two facts.  A fragment's local result is a pure
function of its ``(fragment, index)`` pair and the query, and the epoch
delta names exactly the pairs that changed — so partials at unchanged
fragments are bitwise reusable.  And keyword maintenance touches only
that keyword's postings/DL entries, so a keyword-only swap cannot move
a subscription that references none of the changed keywords.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.coverage import FragmentRuntime
from repro.core.executor import execute_fragment_task, execute_fragment_task_explained, explanations
from repro.core.queries import QClassQuery
from repro.exceptions import DisksError
from repro.live.epochs import EpochManager, EpochState, EpochSwap
from repro.obs.events import emit as emit_event
from repro.obs.trace import SpanCollector
from repro.sub.registry import (
    Subscription,
    SubscriptionRegistry,
    compute_scope,
    fragment_in_scope,
    node_source_terms,
    query_keywords,
)

__all__ = ["SubscriptionEngine", "SubscriptionNotice"]

NoticeSink = Callable[["SubscriptionNotice"], None]


@dataclass(frozen=True)
class SubscriptionNotice:
    """One incremental result change pushed to a subscriber.

    ``added`` / ``removed`` are membership changes versus the last
    materialized result; ``rescored`` lists nodes that stayed members
    but whose per-term distances moved (scored subscriptions only —
    e.g. an edge reweight that shortens a path without changing
    coverage membership).
    """

    sub_id: str
    epoch: int
    added: tuple[int, ...]
    removed: tuple[int, ...]
    rescored: tuple[int, ...] = ()

    def is_empty(self) -> bool:
        """Whether the re-evaluation found no observable change."""
        return not (self.added or self.removed or self.rescored)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form for the ``notify`` wire frame."""
        return {
            "sub": self.sub_id,
            "epoch": self.epoch,
            "added": list(self.added),
            "removed": list(self.removed),
            "rescored": list(self.rescored),
        }


class SubscriptionEngine:
    """Registry + incremental re-evaluation, attached to an EpochManager.

    Thread safety: a single re-entrant lock guards the registry, the
    runtime pool and the materialized results.  ``_on_swap`` runs on
    the updater's thread (inside the manager's apply lock);
    ``register`` / ``unregister`` arrive from serve-connection threads.
    Whichever wins the lock sees a consistent (epoch, runtimes,
    registry) triple — a subscription registered concurrently with a
    swap is either evaluated directly on the new epoch or re-routed by
    the swap like any other.
    """

    def __init__(
        self,
        manager: EpochManager,
        *,
        metrics=None,
        tracer=None,
    ) -> None:
        self._manager = manager
        self._metrics = metrics
        self._tracer = tracer
        self._lock = threading.RLock()
        self.registry = SubscriptionRegistry()
        self._sinks: dict[str, NoticeSink] = {}
        state = manager.state
        self._epoch = state.epoch
        self._fragments = list(state.fragments)
        self._indexes = list(state.indexes)
        self._runtimes = [
            FragmentRuntime(fragment, index)
            for fragment, index in zip(self._fragments, self._indexes)
        ]
        manager.subscribe_swaps(self._on_swap)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the manager; no further swaps are processed."""
        self._manager.unsubscribe(self._on_swap)

    def bind(self, *, metrics=None, tracer=None) -> None:
        """Late-bind observability sinks (the serve layer shares its
        :class:`~repro.serve.metrics.MetricsRegistry` and tracer so the
        engine's gauges and spans land in the server's snapshot)."""
        if metrics is not None:
            self._metrics = metrics
            self._gauge()
        if tracer is not None:
            self._tracer = tracer

    def __enter__(self) -> "SubscriptionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        query: QClassQuery,
        *,
        sub_id: str | None = None,
        sink: NoticeSink | None = None,
        scored: bool = False,
    ) -> Subscription:
        """Register a standing query; materializes its initial result.

        The returned subscription carries the full current result (for
        the subscribe reply); subsequent changes arrive as
        :class:`SubscriptionNotice` diffs on ``sink``.
        """
        with self._lock:
            sid = sub_id if sub_id is not None else self.registry.new_id()
            scope = compute_scope(query, self._fragments, self._indexes)
            subscription = Subscription(
                sub_id=sid,
                query=query,
                keywords=query_keywords(query),
                scope=scope,
                epoch=self._epoch,
                scored=scored,
            )
            fragment_ids = (
                sorted(scope) if scope is not None else range(len(self._fragments))
            )
            for fragment_id in fragment_ids:
                self._eval_partial(subscription, fragment_id)
            self._materialize(subscription)
            self.registry.add(subscription)
            if sink is not None:
                self._sinks[sid] = sink
            self._gauge()
            return subscription

    def unregister(self, sub_id: str) -> bool:
        """Drop a subscription; returns whether it existed."""
        with self._lock:
            removed = self.registry.remove(sub_id)
            self._sinks.pop(sub_id, None)
            self._gauge()
            return removed is not None

    def set_sink(self, sub_id: str, sink: NoticeSink | None) -> None:
        """Attach or detach the delivery sink of a live subscription."""
        with self._lock:
            if sub_id not in self.registry:
                raise DisksError(f"unknown subscription {sub_id!r}")
            if sink is None:
                self._sinks.pop(sub_id, None)
            else:
                self._sinks[sub_id] = sink

    def snapshot(self, sub_id: str) -> dict[str, object]:
        """Full current result of one subscription (resync payload)."""
        with self._lock:
            subscription = self.registry.get(sub_id)
            if subscription is None:
                raise DisksError(f"unknown subscription {sub_id!r}")
            return {
                "sub": sub_id,
                "epoch": subscription.epoch,
                "nodes": sorted(subscription.result),
            }

    def stats(self) -> dict[str, int]:
        """Registry shape counters for the serve ``stats`` op."""
        return self.registry.stats()

    @property
    def epoch(self) -> int:
        """The epoch the engine's materialized results reflect."""
        return self._epoch

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _eval_partial(self, subscription: Subscription, fragment_id: int) -> None:
        """Recompute one fragment's share of a subscription's answer."""
        runtime = self._runtimes[fragment_id]
        if subscription.scored:
            _task, partial = execute_fragment_task_explained(runtime, subscription.query)
            if partial[0]:
                subscription.partials[fragment_id] = explanations(subscription.query, partial)
            else:
                subscription.partials.pop(fragment_id, None)
        else:
            task = execute_fragment_task(runtime, subscription.query)
            if task.local_result:
                subscription.partials[fragment_id] = task.local_result
            else:
                subscription.partials.pop(fragment_id, None)

    def _materialize(self, subscription: Subscription) -> None:
        """Re-union the partials into ``result`` (and ``scores``)."""
        nodes: set[int] = set()
        scores: dict[int, tuple[float | None, ...]] = {}
        for partial in subscription.partials.values():
            if isinstance(partial, Mapping):
                scores.update(partial)
                nodes.update(partial)
            else:
                nodes.update(partial)
        subscription.result = frozenset(nodes)
        subscription.scores = scores
        subscription.epoch = self._epoch

    def _reevaluate(
        self, subscription: Subscription, fragment_ids: set[int]
    ) -> SubscriptionNotice:
        """Recompute the given fragments' partials and diff the union."""
        before_nodes = subscription.result
        before_scores = subscription.scores
        scope = subscription.scope
        for fragment_id in sorted(fragment_ids):
            if scope is not None and fragment_id not in scope:
                # Fell out of scope: its local coverage is provably
                # empty under the new index, no need to execute.
                subscription.partials.pop(fragment_id, None)
            else:
                self._eval_partial(subscription, fragment_id)
        self._materialize(subscription)
        added = tuple(sorted(subscription.result - before_nodes))
        removed = tuple(sorted(before_nodes - subscription.result))
        rescored: tuple[int, ...] = ()
        if subscription.scored:
            rescored = tuple(
                sorted(
                    node
                    for node in subscription.result & before_nodes
                    if subscription.scores.get(node) != before_scores.get(node)
                )
            )
        return SubscriptionNotice(
            sub_id=subscription.sub_id,
            epoch=self._epoch,
            added=added,
            removed=removed,
            rescored=rescored,
        )

    def _rescope(self, changed: set[int]) -> set[str]:
        """Re-check scope candidacy of the changed fragments.

        Only needed on topology swaps: a rebuilt index can gain or lose
        node DL entries, moving a fragment in or out of a subscription's
        coverage ball.  Unchanged fragments keep their candidacy — their
        indexes are the same objects.  Returns the subscriptions whose
        scope moved: a shrink drops the fragment from the routing index
        *before* ``affected()`` consults it, so the caller must force
        those into the re-evaluation set to clear stale partials.
        """
        moved: set[str] = set()
        for sub_id in self.registry.ids():
            subscription = self.registry.get(sub_id)
            if subscription is None or subscription.scope is None:
                continue
            terms = node_source_terms(subscription.query)
            in_scope = {
                fragment_id
                for fragment_id in changed
                if all(
                    fragment_in_scope(
                        term,
                        self._fragments[fragment_id],
                        self._indexes[fragment_id],
                    )
                    for term in terms
                )
            }
            new_scope = frozenset((subscription.scope - changed) | in_scope)
            if new_scope != subscription.scope:
                moved.add(sub_id)
                self.registry.rescope(sub_id, new_scope)
        return moved

    def _on_swap(
        self,
        state: EpochState,
        delta: dict,
        swap: EpochSwap,
    ) -> None:
        started = time.perf_counter()
        with self._lock:
            for fragment_id, (fragment, index) in delta.items():
                self._fragments[fragment_id] = fragment
                self._indexes[fragment_id] = index
                self._runtimes[fragment_id].refresh(fragment, index)
            self._epoch = state.epoch
            changed = set(delta)
            rescoped: set[str] = set()
            if swap.topology_changed:
                rescoped = self._rescope(changed)
            affected = (
                self.registry.affected(
                    changed, swap.changed_keywords, swap.topology_changed
                )
                | rescoped
            )
            notices = self._run_affected(affected, changed)
        elapsed = time.perf_counter() - started
        self._observe(swap.epoch, len(affected), notices, elapsed, incremental=True)

    def _run_affected(
        self, affected: set[str], changed: set[int]
    ) -> list[SubscriptionNotice]:
        collector = self._collector()
        notices: list[SubscriptionNotice] = []
        for sub_id in sorted(affected):
            subscription = self.registry.get(sub_id)
            if subscription is None:  # pragma: no cover - unregistered mid-swap
                continue
            scope = subscription.scope
            if scope is None:
                fragment_ids = set(changed)
            else:
                # Changed fragments currently in scope, plus those still
                # holding a stale partial from before they fell out.
                fragment_ids = changed & (scope | set(subscription.partials))
            if collector is not None:
                with collector.span(
                    "sub-reeval", sub_id=sub_id, fragments=len(fragment_ids)
                ):
                    notice = self._reevaluate(subscription, fragment_ids)
            else:
                notice = self._reevaluate(subscription, fragment_ids)
            if not notice.is_empty():
                notices.append(notice)
                self._deliver(notice)
        if collector is not None:
            self._tracer.record(
                collector.trace_id,
                collector.spans,
                kind="sub-reeval",
                epoch=self._epoch,
                affected=len(affected),
                notified=len(notices),
            )
        return notices

    def _deliver(self, notice: SubscriptionNotice) -> None:
        if self._metrics is not None:
            self._metrics.increment("sub_notifications")
        sink = self._sinks.get(notice.sub_id)
        if sink is None:
            return
        try:
            sink(notice)
        except Exception as exc:
            emit_event(
                "sub_sink_error",
                sub_id=notice.sub_id,
                epoch=notice.epoch,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _collector(self) -> SpanCollector | None:
        if self._tracer is None:
            return None
        context = self._tracer.maybe_trace()
        if context is None:
            return None
        return SpanCollector(context.trace_id)

    def _observe(
        self,
        epoch: int,
        affected: int,
        notices: list[SubscriptionNotice],
        seconds: float,
        *,
        incremental: bool,
    ) -> None:
        if self._metrics is not None:
            self._metrics.observe("sub_reeval_seconds", seconds)
        emit_event(
            "sub_reeval",
            epoch=epoch,
            affected=affected,
            notified=len(notices),
            seconds=seconds,
            incremental=incremental,
        )

    # ------------------------------------------------------------------
    # Naive baseline
    # ------------------------------------------------------------------
    def reevaluate_all(self) -> list[SubscriptionNotice]:
        """Re-run every subscription on every scoped fragment from scratch.

        The naive alternative to delta routing — recomputes all partials
        regardless of what changed.  Used as the benchmark baseline and
        as a self-check (its result must always match the incremental
        state).  Notices are delivered exactly as in the incremental
        path.
        """
        started = time.perf_counter()
        with self._lock:
            state = self._manager.state
            for fragment_id, (fragment, index) in enumerate(
                zip(state.fragments, state.indexes)
            ):
                if (
                    self._fragments[fragment_id] is not fragment
                    or self._indexes[fragment_id] is not index
                ):
                    self._fragments[fragment_id] = fragment
                    self._indexes[fragment_id] = index
                    self._runtimes[fragment_id].refresh(fragment, index)
            self._epoch = state.epoch
            all_fragments = set(range(len(self._fragments)))
            self._rescope(all_fragments)
            notices: list[SubscriptionNotice] = []
            affected = self.registry.ids()
            for sub_id in affected:
                subscription = self.registry.get(sub_id)
                if subscription is None:  # pragma: no cover
                    continue
                scope = subscription.scope
                fragment_ids = (
                    all_fragments
                    if scope is None
                    else set(scope) | set(subscription.partials)
                )
                notice = self._reevaluate(subscription, fragment_ids)
                if not notice.is_empty():
                    notices.append(notice)
                    self._deliver(notice)
        elapsed = time.perf_counter() - started
        self._observe(
            self._epoch, len(affected), notices, elapsed, incremental=False
        )
        return notices

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.observe_gauge("subscriptions", len(self.registry))
