"""The semantic result cache: LRU store + epoch-delta invalidation.

Concurrency contract: :meth:`SemanticResultCache.probe` and
:meth:`~SemanticResultCache.admit` run on the serving thread(s);
:meth:`~SemanticResultCache.on_swap` runs on the updater thread as an
:meth:`EpochManager.subscribe_swaps` subscriber — *after* the cluster
has swapped (regular subscribers fire first) and *inside* the apply
lock, so an update ack reaches the client only once invalidation has
completed (read-your-writes).  One internal lock serialises all three.

Epoch recheck at admission: a probe that misses records the epoch it
saw; :meth:`admit` inserts only if that epoch is still current.  The
race this closes: query Q probes at epoch e, an update swaps the
cluster to e+1 while Q's answer is in flight, then Q's (pre- or
post-swap — the fan-out lock makes it one or the other on all
machines) answer returns.  If the swap's invalidation ran first, the
stale answer must not be admitted under e+1 — the epoch check rejects
it.  If admission wins the lock first, the entry lands stamped ``e``
and the swap's eviction scan (or, for entries the swap does not
touch, the fact that the answer is identical at both epochs) makes it
safe.

Stored distances: an entry admitted from an explain-mode answer keeps
each non-empty fragment's partial ``(run, per-term array('d') columns)``,
``8 + 8k`` bytes a node for ``k`` terms.

Derived entries: a subsumption hit filters a wider sibling's stored
distances down to the probe's radii, and stores the filtered run under
the probe's own key so the next read of that shape is an exact hit —
``filter_answer`` runs once per (shape, radii) per invalidation, not once
per read.  A derived entry carries no distances (it is never itself a
subsumption source) and inherits its parent's epoch and fragment scope:
it mentions the same keywords, and a narrower radius reaches a subset of
the fragments, so the parent's scope is a sound over-approximation and
the two are evicted by the same swaps.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

from repro.cache.keys import CanonicalQuery, canonicalize, filter_answer, subsumes
from repro.core.queries import QClassQuery
from repro.core.runs import as_run, merge_runs
from repro.sub.registry import compute_scope

__all__ = ["AdmissionTicket", "CacheHit", "SemanticResultCache"]

# A fragment's stored answer: its run and one distance column per term.
Partial = tuple[array, list[array]]

# Deterministic size model (bytes) — an estimate for LRU budgeting,
# stable across interpreters so tests can pin it, and at least what an
# entry holds resident (``tests/test_cache_semantics.py`` checks that).
_ENTRY_OVERHEAD = 256
_PER_FRAGMENT_OVERHEAD = 64
_PER_NODE = 16
_PER_DISTANCE = 16


@dataclass(frozen=True)
class CacheHit:
    """A served answer: its sorted run plus how it was derived."""

    run: array
    kind: str  # "exact" | "subsumption"
    epoch: int

    @cached_property
    def nodes(self) -> frozenset[int]:
        """The answer as a node set."""
        return frozenset(self.run)


@dataclass(frozen=True)
class AdmissionTicket:
    """Returned by a missing probe; presents the miss-time epoch at admit."""

    canonical: CanonicalQuery
    epoch: int
    query: QClassQuery


@dataclass
class _Entry:
    canonical: CanonicalQuery
    run: array  # the answer, sorted once at admission; exact hits reuse it
    # fragment_id -> partial (columns in entry term order); None when the
    # miss was dispatched traced — the entry then serves exact hits only,
    # never subsumption.
    partials: dict[int, Partial] | None
    epoch: int
    scope: frozenset[int] | None  # None = depends on every fragment
    size_bytes: int = field(default=0)


def _entry_bytes(run: array, partials: dict[int, Partial] | None) -> int:
    total = _ENTRY_OVERHEAD + _PER_NODE * len(run)
    for nodes, columns in (partials or {}).values():
        total += _PER_FRAGMENT_OVERHEAD + (_PER_NODE + _PER_DISTANCE * len(columns)) * len(nodes)
    return total


class SemanticResultCache:
    """Query-level result cache with subsumption and epoch invalidation.

    ``max_entries``/``max_bytes`` bound the LRU; an entry whose own size
    exceeds ``max_bytes`` is never admitted.  ``subsumption=False``
    degrades the cache to an exact-key memo table (for A/B runs).
    """

    def __init__(
        self,
        *,
        max_entries: int = 1024,
        max_bytes: int = 32 * 1024 * 1024,
        subsumption: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._subsumption = subsumption
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._by_shape: dict[tuple, set[tuple]] = {}
        self._by_keyword: dict[str, set[tuple]] = {}
        self._radius_dependent: set[tuple] = set()
        self._bytes = 0
        self._epoch = 0
        self._updater = None
        self._metrics = None
        self._hits = 0
        self._misses = 0
        self._subsumption_hits = 0
        self._evictions = 0
        self._invalidations = 0
        self._inserts = 0
        self._stale_rejects = 0
        self._oversize_rejects = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, metrics) -> None:
        """Mirror counters/gauges into a MetricsRegistry (Prometheus)."""
        self._metrics = metrics
        metrics.observe_gauge("cache_entries", 0)
        metrics.observe_gauge("cache_bytes", 0)

    def attach(self, updater) -> None:
        """Ride the updater's swap feed; seed the current epoch."""
        self._updater = updater
        with self._lock:
            self._epoch = updater.epoch
        updater.subscribe_swaps(self.on_swap)

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------
    def probe(
        self, query: QClassQuery
    ) -> tuple[CacheHit | None, AdmissionTicket | None]:
        """Look the query up; a miss returns a ticket for later admission."""
        canonical = canonicalize(query)
        with self._lock:
            key = canonical.key
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._count("cache_hits")
                return CacheHit(entry.run, "exact", entry.epoch), None
            if self._subsumption:
                for other_key in self._by_shape.get(canonical.shape, ()):
                    other = self._entries[other_key]
                    if other.partials is None:
                        continue  # no distance columns — exact hits only
                    if not subsumes(other.canonical, canonical):
                        continue
                    run = merge_runs(
                        filter_answer(other.canonical, canonical, partial)
                        for partial in other.partials.values()
                    )
                    self._entries.move_to_end(other_key)
                    self._subsumption_hits += 1
                    self._count("cache_subsumption_hits")
                    # Derive once: the next read of this shape is an exact hit.
                    self._insert(
                        _Entry(canonical, run, None, other.epoch, other.scope, _entry_bytes(run, None))
                    )
                    return CacheHit(run, "subsumption", other.epoch), None
            self._misses += 1
            self._count("cache_misses")
            return None, AdmissionTicket(canonical, self._epoch, query)

    def admit(
        self,
        ticket: AdmissionTicket,
        answer: "array | frozenset[int]",
        partials: dict[int, Partial] | None,
    ) -> bool:
        """Insert a computed answer — unless the epoch moved since the probe."""
        return self.admit_outcome(ticket, answer, partials) == "admitted"

    def admit_outcome(
        self,
        ticket: AdmissionTicket,
        answer: "array | frozenset[int]",
        partials: dict[int, Partial] | None,
    ) -> str:
        """Like :meth:`admit`, but names the outcome.

        ``answer`` is the response's sorted run (kept as it is) or a
        plain node set (sorted once, here); ``partials`` maps fragment
        ids to explain-mode partials, of which only non-empty ones are
        kept.  Returns ``"admitted"``, ``"stale"`` (epoch moved since the
        probe — the race window tail-based trace retention keeps),
        ``"oversize"`` or ``"duplicate"``.
        """
        scope = self._compute_scope(ticket.query)
        run = as_run(answer)
        if partials is not None:
            partials = {fid: partial for fid, partial in partials.items() if partial[0]}
        size = _entry_bytes(run, partials)
        entry = _Entry(ticket.canonical, run, partials, ticket.epoch, scope, size)
        with self._lock:
            if ticket.epoch != self._epoch:
                self._stale_rejects += 1
                return "stale"
            key = ticket.canonical.key
            if key in self._entries:  # concurrent identical miss already landed
                self._entries.move_to_end(key)
                return "duplicate"
            return "admitted" if self._insert(entry) else "oversize"

    def _insert(self, entry: _Entry) -> bool:
        """Store ``entry`` as most recent and evict down to the budgets.

        The one way in (lock held) for computed and derived answers
        alike; ``False`` when the entry alone exceeds ``max_bytes``.
        """
        if entry.size_bytes > self._max_bytes:
            self._oversize_rejects += 1
            return False
        key = entry.canonical.key
        self._entries[key] = entry
        self._index(key, entry)
        self._bytes += entry.size_bytes
        self._inserts += 1
        while len(self._entries) > self._max_entries or self._bytes > self._max_bytes:
            victim_key, victim = self._entries.popitem(last=False)
            self._unindex(victim_key, victim)
            self._bytes -= victim.size_bytes
            self._evictions += 1
            self._count("cache_evictions")
        self._gauges()
        return True

    def _compute_scope(self, query: QClassQuery) -> frozenset[int] | None:
        """Fragment-dependency scope, from the updater's current indexes.

        Mirrors the standing-query registry: an out-of-scope fragment
        provably contributes nothing to the restricting terms, so
        keyword churn confined to it cannot change the answer.  Without
        an updater the cache never sees swaps, so the scope is moot.
        """
        if self._updater is None:
            return None
        state = self._updater.state
        return compute_scope(query, state.fragments, state.indexes)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def on_swap(self, state, delta, swap) -> None:
        """Epoch-delta invalidation: evict only what the swap can affect.

        Topology change (any op without a keyword): every
        radius-dependent entry goes — edge weights reach arbitrarily far
        through coverage radii, and a stale fragment scope may even be
        too small.  Pure-HAS entries (all radii 0) survive unless their
        keywords changed.  Keyword churn: an entry goes iff one of its
        keywords changed AND its fragment scope intersects the changed
        fragments (an unscoped entry intersects everything).
        """
        with self._lock:
            victims: set[tuple] = set()
            if swap.topology_changed:
                victims |= self._radius_dependent
            if swap.changed_keywords:
                changed_fragments = set(swap.changed_fragments)
                for keyword in swap.changed_keywords:
                    for key in self._by_keyword.get(keyword, ()):
                        entry = self._entries[key]
                        if entry.scope is None or entry.scope & changed_fragments:
                            victims.add(key)
            for key in victims:
                entry = self._entries.pop(key)
                self._unindex(key, entry)
                self._bytes -= entry.size_bytes
                self._invalidations += 1
                self._count("cache_evictions")
            self._epoch = swap.epoch
            self._gauges()

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_shape.clear()
            self._by_keyword.clear()
            self._radius_dependent.clear()
            self._bytes = 0
            self._evictions += dropped
            self._gauges()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def stats(self) -> dict[str, object]:
        """Counter/config snapshot (the ``result_cache`` stats block)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "subsumption_hits": self._subsumption_hits,
                "evictions": self._evictions + self._invalidations,
                "invalidations": self._invalidations,
                "inserts": self._inserts,
                "stale_rejects": self._stale_rejects,
                "oversize_rejects": self._oversize_rejects,
                "epoch": self._epoch,
                "subsumption": self._subsumption,
                "max_entries": self._max_entries,
                "max_bytes": self._max_bytes,
            }

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _index(self, key: tuple, entry: _Entry) -> None:
        self._by_shape.setdefault(entry.canonical.shape, set()).add(key)
        for keyword in entry.canonical.keywords:
            self._by_keyword.setdefault(keyword, set()).add(key)
        if entry.canonical.radius_dependent:
            self._radius_dependent.add(key)

    def _unindex(self, key: tuple, entry: _Entry) -> None:
        bucket = self._by_shape.get(entry.canonical.shape)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self._by_shape[entry.canonical.shape]
        for keyword in entry.canonical.keywords:
            bucket = self._by_keyword.get(keyword)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_keyword[keyword]
        self._radius_dependent.discard(key)

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.increment(name)

    def _gauges(self) -> None:
        if self._metrics is not None:
            self._metrics.observe_gauge("cache_entries", len(self._entries))
            self._metrics.observe_gauge("cache_bytes", self._bytes)
