"""Subscription store + per-fragment × per-term inverted routing index.

Routing answers one question on every epoch swap: *which standing
queries could the changed fragments possibly have affected?*  Getting
it exact matters twice over — a missed subscription is a correctness
bug (a client silently serves stale results), a spurious one burns the
re-evaluation budget the whole subsystem exists to save.

The index has three sides:

* **per term** — ``keyword -> subscriptions`` over every keyword any
  term of the query references (including subtracted terms: removing a
  keyword from an excluded zone can *add* results).  A keyword-only
  batch affects a subscription iff one of its keywords changed, because
  keyword maintenance touches exactly that keyword's postings and DL
  entries (fragment-local results for other keywords are bitwise
  unchanged).
* **per fragment** — ``fragment -> subscriptions scoped to it``.  A
  subscription whose D-expression provably confines results inside a
  node-source coverage ``R(l, r)`` (an RKQ's range) is *scoped* to the
  fragments that ball intersects: ``l``'s home fragment plus every
  fragment whose DL node entries reach ``l`` within ``r``.  Changes in
  fragments outside the scope cannot touch the answer.
* **unscoped** — subscriptions with no confining node-source term
  (plain SGKQs): any fragment may contribute, so they route purely by
  term.

A fragment's scope membership depends only on node DL entries and the
(static) partition, so it can only move when that fragment's index is
rebuilt — i.e. on a topology (edge-weight) delta, where the engine
re-checks candidacy of exactly the changed fragments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.dfunction import DExpression, SetOp
from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource, QClassQuery
from repro.exceptions import DisksError

__all__ = [
    "Subscription",
    "SubscriptionRegistry",
    "compute_scope",
    "fragment_in_scope",
    "restricting_terms",
]


def restricting_terms(expression: DExpression) -> frozenset[int]:
    """Term indexes ``t`` with ``eval(expr) ⊆ coverage(t)`` for any input.

    Structural induction over the D-expression: a leaf restricts to
    itself, an intersection restricts to either side's restrictors, a
    subtraction keeps only the left side's, a union only those common
    to both branches.
    """
    if expression.op is None:
        assert expression.index is not None
        return frozenset((expression.index,))
    assert expression.left is not None and expression.right is not None
    left = restricting_terms(expression.left)
    if expression.op is SetOp.SUBTRACT:
        return left
    right = restricting_terms(expression.right)
    if expression.op is SetOp.INTERSECT:
        return left | right
    assert expression.op is SetOp.UNION
    return left & right


def fragment_in_scope(
    term: CoverageTerm, fragment: Fragment, index: NPDIndex
) -> bool:
    """Whether ``R(node, r)`` can reach any member of ``fragment``.

    True iff the source node lives in the fragment or the fragment's DL
    node entries reach it within the radius — exactly the seed
    condition of Alg. 2, so an out-of-scope fragment's local coverage
    is empty by construction.
    """
    source = term.source
    assert isinstance(source, NodeSource)
    if source.node in fragment.members:
        return True
    return bool(index.node_seeds(source.node, term.radius))


def compute_scope(
    query: QClassQuery,
    fragments: Iterable[Fragment],
    indexes: Iterable[NPDIndex],
) -> frozenset[int] | None:
    """The fragment ids that can contribute to ``query``'s answer.

    ``None`` means "all fragments" — the query has no restricting
    node-source term, so no spatial pruning applies.  Otherwise the
    scope is the intersection of the candidate fragment sets of every
    restricting node-source term (the answer lies inside each of their
    coverage balls).
    """
    restricting = restricting_terms(query.expression)
    node_terms = [
        query.terms[i]
        for i in sorted(restricting)
        if isinstance(query.terms[i].source, NodeSource)
    ]
    if not node_terms:
        return None
    scope: set[int] | None = None
    pairs = list(zip(fragments, indexes))
    for term in node_terms:
        candidates = {
            fragment.fragment_id
            for fragment, index in pairs
            if fragment_in_scope(term, fragment, index)
        }
        scope = candidates if scope is None else scope & candidates
    assert scope is not None
    return frozenset(scope)


@dataclass
class Subscription:
    """One standing query and its materialized state.

    ``partials`` holds the per-fragment local results (disjoint by
    Lemma 1 — fragments partition the node set), keyed by fragment id;
    their union is ``result``.  Scored subscriptions store each node's
    per-term distance tuple instead of a bare set, so distance drift
    under edge reweights surfaces as a ``rescored`` notification even
    when membership is unchanged.

    ``keywords`` / ``scope`` are the routing features maintained by the
    registry; ``scope=None`` routes the subscription to every fragment.
    """

    sub_id: str
    query: QClassQuery
    keywords: frozenset[str]
    scope: frozenset[int] | None
    epoch: int = 0
    scored: bool = False
    partials: dict[int, dict[int, tuple[float | None, ...]] | frozenset[int]] = field(
        default_factory=dict
    )
    result: frozenset[int] = frozenset()
    scores: dict[int, tuple[float | None, ...]] = field(default_factory=dict)


class SubscriptionRegistry:
    """Thread-safe subscription store with the inverted routing index."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._subscriptions: dict[str, Subscription] = {}
        self._by_keyword: dict[str, set[str]] = {}
        self._by_fragment: dict[int, set[str]] = {}
        self._unscoped: set[str] = set()
        self._counter = 0

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def __contains__(self, sub_id: str) -> bool:
        with self._lock:
            return sub_id in self._subscriptions

    def get(self, sub_id: str) -> Subscription | None:
        """The subscription with this id, if registered."""
        with self._lock:
            return self._subscriptions.get(sub_id)

    def ids(self) -> list[str]:
        """Registered subscription ids, in registration order."""
        with self._lock:
            return list(self._subscriptions)

    def new_id(self) -> str:
        """A fresh subscription id (``s1``, ``s2``, ...)."""
        with self._lock:
            self._counter += 1
            return f"s{self._counter}"

    def add(self, subscription: Subscription) -> Subscription:
        """Register a subscription and index its routing features."""
        with self._lock:
            if subscription.sub_id in self._subscriptions:
                raise DisksError(
                    f"subscription id {subscription.sub_id!r} already registered"
                )
            self._subscriptions[subscription.sub_id] = subscription
            for keyword in subscription.keywords:
                self._by_keyword.setdefault(keyword, set()).add(subscription.sub_id)
            self._index_scope(subscription)
            return subscription

    def remove(self, sub_id: str) -> Subscription | None:
        """Unregister; returns the removed subscription (None if absent)."""
        with self._lock:
            subscription = self._subscriptions.pop(sub_id, None)
            if subscription is None:
                return None
            for keyword in subscription.keywords:
                members = self._by_keyword.get(keyword)
                if members is not None:
                    members.discard(sub_id)
                    if not members:
                        del self._by_keyword[keyword]
            self._unindex_scope(subscription)
            return subscription

    def _index_scope(self, subscription: Subscription) -> None:
        if subscription.scope is None:
            self._unscoped.add(subscription.sub_id)
            return
        for fragment_id in subscription.scope:
            self._by_fragment.setdefault(fragment_id, set()).add(subscription.sub_id)

    def _unindex_scope(self, subscription: Subscription) -> None:
        self._unscoped.discard(subscription.sub_id)
        for fragment_id in subscription.scope or ():
            members = self._by_fragment.get(fragment_id)
            if members is not None:
                members.discard(subscription.sub_id)
                if not members:
                    del self._by_fragment[fragment_id]

    def rescope(self, sub_id: str, scope: frozenset[int] | None) -> None:
        """Replace a subscription's fragment scope (after index rebuilds)."""
        with self._lock:
            subscription = self._subscriptions.get(sub_id)
            if subscription is None:
                return
            if scope == subscription.scope:
                return
            self._unindex_scope(subscription)
            subscription.scope = scope
            self._index_scope(subscription)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def affected(
        self,
        changed_fragments: Iterable[int],
        changed_keywords: Iterable[str],
        topology_changed: bool,
    ) -> set[str]:
        """Subscription ids one epoch delta may have touched.

        A subscription qualifies iff a changed fragment lies in its
        scope **and** the delta can move one of its terms: any term
        when topology changed (distances shifted), else only matching
        changed keywords.  Scope *growth* under topology deltas is the
        engine's job (it re-checks candidacy of the changed fragments
        against the new indexes before calling this).
        """
        with self._lock:
            frag_hit: set[str] = set(self._unscoped)
            for fragment_id in changed_fragments:
                frag_hit.update(self._by_fragment.get(fragment_id, ()))
            if topology_changed:
                return frag_hit
            term_hit: set[str] = set()
            for keyword in changed_keywords:
                term_hit.update(self._by_keyword.get(keyword, ()))
            return frag_hit & term_hit

    def routed_by_keyword(self, keyword: str) -> set[str]:
        """Subscription ids indexed under one keyword (for tests/stats)."""
        with self._lock:
            return set(self._by_keyword.get(keyword, ()))

    def routed_by_fragment(self, fragment_id: int) -> set[str]:
        """Scoped subscription ids indexed under one fragment."""
        with self._lock:
            return set(self._by_fragment.get(fragment_id, ()))

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Routing-index shape counters for the ``stats`` op."""
        with self._lock:
            return {
                "subscriptions": len(self._subscriptions),
                "scoped": len(self._subscriptions) - len(self._unscoped),
                "unscoped": len(self._unscoped),
                "keywords_indexed": len(self._by_keyword),
                "fragment_routes": sum(
                    len(members) for members in self._by_fragment.values()
                ),
            }


def query_keywords(query: QClassQuery) -> frozenset[str]:
    """Every keyword any term references (routing feature)."""
    return frozenset(
        term.source.keyword
        for term in query.terms
        if isinstance(term.source, KeywordSource)
    )


def node_source_terms(query: QClassQuery) -> list[CoverageTerm]:
    """The restricting node-source terms (scope contributors)."""
    restricting = restricting_terms(query.expression)
    return [
        query.terms[i]
        for i in sorted(restricting)
        if isinstance(query.terms[i].source, NodeSource)
    ]
