"""Keyword-coverage evaluation on one fragment (paper Alg. 2, §4.2).

:class:`FragmentRuntime` is the query-time state a worker machine keeps
for its fragment: the *extended fragment* adjacency (``P ∪ SC(P)``,
Alg. 2 step 1 — built once and reused across queries) plus the DL lookup
side of the index.  :func:`local_coverage` then evaluates one coverage
term ``R(source, r) ∩ P``:

1. **Search from index** (step 2) — DL entry pairs with distance ≤ r
   become weighted virtual-source seeds;
2. **Extend** (step 3) — fragment-local source nodes become zero-weight
   seeds (the directed virtual edges of Fig. 5);
3. a bounded Dijkstra over the extended fragment settles exactly the
   member nodes within ``r`` of the source (Theorem 3 guarantees the
   distances are globally exact).

Every query evaluates the step-3 search on the runtime's packed
:class:`~repro.core.kernel.FragmentKernel` — dense node ids, CSR
adjacency, precompiled seed arrays — whose dense ``(marks, dist,
count)`` state set-valued queries read as a bitmask and explain/top-k
as a distance map.  :func:`settle_term` is the entry point (radius
guard, then kernel) and returns the full state; :func:`term_members`
returns only the term's membership, from the :class:`CoverageCache`
when it holds the term.

:func:`reference_distance_map` is the executable spec: the same search
over dicts (``seeds_for`` and the extended adjacency, run by
:func:`~repro.search.dijkstra.shortest_path_distances`).  No query runs
it; ``tests/test_kernel.py`` pins the kernel's distance maps to it, bit
for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple, Sequence

from repro.core.fragment import Fragment
from repro.core.kernel import FragmentKernel
from repro.core.npd import NPDIndex
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource
from repro.exceptions import QueryError, RadiusExceededError
from repro.search.dijkstra import shortest_path_distances

__all__ = [
    "CacheStats",
    "CoverageCache",
    "FragmentRuntime",
    "batch_distance_maps",
    "coverage_members",
    "describe_source",
    "local_coverage",
    "local_distance_map",
    "reference_distance_map",
    "settle_term",
    "settle_terms",
    "sum_cache_stats",
    "term_members",
]


@dataclass
class CoverageStats:
    """Work counters for one coverage evaluation (Theorem 5 bookkeeping)."""

    seeds_from_dl: int = 0
    seeds_local: int = 0
    settled_nodes: int = 0


class CacheStats(NamedTuple):
    """Coverage-cache counters: ``(hits, misses)``."""

    hits: int
    misses: int


_RADIUS = struct.Struct("<d").pack


def _source_key(source) -> bytes:
    if isinstance(source, KeywordSource):
        return b"k" + source.keyword.encode()
    return b"n" + str(source.node).encode()


def _entry_key(term: CoverageTerm) -> bytes:
    """``(source, radius)`` as one small bytes object: the cache's key.

    About 50 bytes where a :class:`CoverageTerm` kept alive with its
    source, keyword and radius objects costs over 250, so an entry costs
    its mask plus under 128 bytes (``tests/test_term_cache.py`` pins
    it).  Layout: ``_source_key(source) + radius``; the radius is the
    fixed-size 8-byte suffix, so the key is unambiguous.
    """
    return _source_key(term.source) + _RADIUS(term.radius)


class CoverageCache:
    """LRU of settled coverage *sets* keyed by coverage term; capacity 0 = off.

    An entry is the term's membership only — the kernel's dense-id
    bitmask (at most ⌈n/8⌉ bytes, see :meth:`FragmentKernel.mask`) —
    and never a distance list: explain and top-k read distances and
    settle afresh.  Entries are a pure function of the
    kernel's seed lists and CSR, so a seed-list patch invalidates exactly
    the sources it rewrites (:meth:`discard`).  ``last`` names the
    outcome of the most recent lookup (``hit``/``miss``, or ``off``) for
    the traced ``eval`` span.
    """

    def __init__(self, capacity: int = 0) -> None:
        self._capacity = max(0, capacity)
        self._entries: dict[bytes, object] = {}
        self.hits = self.misses = 0
        self.last = "off"

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """``(hits, misses)`` so far."""
        return CacheStats(self.hits, self.misses)

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        self._entries.clear()

    def discard(self, sources) -> None:
        """Drop the entries of every term whose source is in ``sources``."""
        stale = {_source_key(source) for source in sources}
        for key in [key for key in self._entries if key[:-8] in stale]:
            del self._entries[key]

    def get(self, term: CoverageTerm):
        """The cached members of ``term`` (refreshing its LRU slot) or None."""
        if not self._capacity:
            return None
        key = _entry_key(term)
        found = self._entries.pop(key, None)
        if found is None:
            self.misses += 1
            self.last = "miss"
            return None
        self._entries[key] = found  # reinsert: most recently used
        self.hits += 1
        self.last = "hit"
        return found

    def put(self, term: CoverageTerm, members) -> None:
        """Cache a term's members, evicting the LRU entry if full."""
        if not self._capacity:
            return
        key = _entry_key(term)
        self._entries.pop(key, None)
        while len(self._entries) >= self._capacity:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = members


class FragmentRuntime:
    """Query-time view of one fragment: ``P ∪ SC(P)`` plus DL lookups.

    Coverage is evaluated on a packed
    :class:`~repro.core.kernel.FragmentKernel` (:attr:`kernel`).  The
    ``compiled`` keyword survives for callers that spell it out and
    accepts only ``True``.  The extended adjacency behind
    :meth:`adjacency`, which only :func:`reference_distance_map` reads,
    is built on first use.

    ``cache_capacity`` enables an LRU :class:`CoverageCache` keyed by
    ``(source, radius)`` — query workloads repeat popular keywords at
    common radiuses, so set-valued hits skip the whole local Dijkstra.
    It stays 0 (off) by default; serving workers size it themselves.

    Staleness: in-place index mutations (every
    :class:`repro.core.maintenance.KeywordMaintainer` operation) bump
    :attr:`NPDIndex.version`; the runtime records the version its kernel
    and coverage cache were built against and transparently rebuilds
    both when it moves, so a runtime never serves pre-mutation packed
    seed lists.  Mutations that *replace* objects — a refreshed
    :class:`Fragment` or a rebuilt index — are pushed in with
    :meth:`refresh` (the maintainer does this for bound runtimes, and
    the cluster ``apply_updates`` paths do it on epoch swaps).
    """

    def __init__(
        self,
        fragment: Fragment,
        index: NPDIndex,
        *,
        cache_capacity: int = 0,
        compiled: bool = True,
    ) -> None:
        if compiled is not True:
            raise QueryError("fragment runtimes evaluate on the packed kernel only")
        if fragment.fragment_id != index.fragment_id:
            raise QueryError(
                f"fragment {fragment.fragment_id} paired with index for "
                f"fragment {index.fragment_id}"
            )
        self._fragment = fragment
        self._index = index
        self._kernel: FragmentKernel | None = FragmentKernel(fragment, index)
        self._extended: dict[int, tuple[tuple[int, float], ...]] | None = None
        self._index_version = index.version
        self._cache = CoverageCache(cache_capacity)

    @property
    def fragment(self) -> Fragment:
        """The underlying fragment ``P``."""
        return self._fragment

    @property
    def index(self) -> NPDIndex:
        """The fragment's NPD-index ``IND(P)``."""
        return self._index

    @property
    def max_radius(self) -> float:
        """The ``maxR`` this runtime can serve."""
        return self._index.max_radius

    @property
    def kernel(self) -> FragmentKernel:
        """The packed kernel (built lazily; rebuilt after index mutation)."""
        self._sync_with_index()
        if self._kernel is None:
            self._kernel = FragmentKernel(self._fragment, self._index)
        return self._kernel

    def _drop_derived(self) -> None:
        self._index_version = self._index.version
        self._kernel = None
        self._extended = None
        self._cache.clear()

    def _sync_with_index(self) -> None:
        """Drop the kernel and cache if the index mutated underneath us."""
        if self._index.version != self._index_version:
            self._drop_derived()

    def refresh(self, fragment: Fragment | None = None, index: NPDIndex | None = None) -> None:
        """Swap in replacement state and invalidate derived structures.

        Called by :class:`repro.core.maintenance.KeywordMaintainer` for
        bound runtimes (fragment keyword-index refreshes, fragment
        rebuilds) and by the cluster ``apply_updates`` paths on epoch
        swaps.  No-ops when nothing actually changed.
        """
        fragment = self._fragment if fragment is None else fragment
        index = self._index if index is None else index
        for new, old, what in ((fragment, self._fragment, "fragment"), (index, self._index, "index")):
            if new.fragment_id != old.fragment_id:
                raise QueryError(
                    f"cannot refresh runtime for fragment {old.fragment_id} "
                    f"with {what} {new.fragment_id}"
                )
        if fragment is self._fragment and index is self._index:
            self._sync_with_index()
            return
        self._fragment, self._index = fragment, index
        self._drop_derived()

    def adjacency(self, node: int) -> tuple[tuple[int, float], ...]:
        """Out-edges of ``node`` in the complete fragment ``P ∪ SC(P)``."""
        if self._extended is None:
            # Alg. 2 step 1: read the edges of the complete fragment P ∪ SC(P).
            extended: dict[int, list[tuple[int, float]]] = {
                node: list(edges) for node, edges in self._fragment.adjacency.items()
            }
            for (u, v), w in self._index.shortcuts.items():
                extended.setdefault(u, []).append((v, w))
                if not self._fragment.directed:
                    extended.setdefault(v, []).append((u, w))
            self._extended = {node: tuple(edges) for node, edges in extended.items()}
        return self._extended.get(node, ())

    # ------------------------------------------------------------------
    # Coverage cache
    # ------------------------------------------------------------------
    @property
    def coverage_cache(self) -> CoverageCache:
        """The coverage cache (switched off when ``cache_capacity`` is 0)."""
        self._sync_with_index()
        return self._cache

    def seeds_for(self, term: CoverageTerm) -> dict[int, float]:
        """Virtual-source seeds for one coverage term (Alg. 2 steps 2–3).

        Keys are member nodes of ``P``; values are exact global distances
        from the term's source.  Zero-weight local seeds and weighted DL
        portal seeds are merged, the smaller distance winning.
        """
        source = term.source
        seeds: dict[int, float] = {}
        if isinstance(source, KeywordSource):
            for node in self._fragment.keyword_index.local_nodes_with(source.keyword):
                seeds[node] = 0.0
            for portal, dist in self._index.keyword_seeds(source.keyword, term.radius).items():
                if dist < seeds.get(portal, math.inf):
                    seeds[portal] = dist
        elif isinstance(source, NodeSource):
            if source.node in self._fragment.members:
                seeds[source.node] = 0.0
            else:
                seeds.update(self._index.node_seeds(source.node, term.radius))
        else:  # pragma: no cover - the Source union is closed
            raise QueryError(f"unsupported coverage source {source!r}")
        return seeds


def sum_cache_stats(runtimes) -> dict[str, int]:
    """Coverage-cache counters summed over ``runtimes``, by counter name."""
    totals = dict.fromkeys(CacheStats._fields, 0)
    for runtime in runtimes:
        for name, value in zip(CacheStats._fields, runtime.coverage_cache.stats):
            totals[name] += value
    return totals


def reference_distance_map(
    runtime: FragmentRuntime, term: CoverageTerm, stats: CoverageStats | None = None
) -> dict[int, float]:
    """The dict-based evaluator: the spec the kernel is tested against.

    Alg. 2 as written — :meth:`FragmentRuntime.seeds_for`, then a bounded
    Dijkstra over :meth:`FragmentRuntime.adjacency` — returning the same
    ``{member: distance}`` map and counters as :func:`local_distance_map`.
    No query path calls it.
    """
    seeds = runtime.seeds_for(term)
    if stats is not None:
        stats.seeds_from_dl += sum(1 for d in seeds.values() if d > 0.0)
        stats.seeds_local += sum(1 for d in seeds.values() if d == 0.0)
    if not seeds:
        return {}
    # Shortcut endpoints are always members, so every settled node is a
    # member of P already; assert-by-construction in tests.
    distances = shortest_path_distances(runtime.adjacency, seeds, bound=term.radius)
    if stats is not None:
        stats.settled_nodes += len(distances)
    return distances


def settle_term(runtime, term: CoverageTerm, stats: CoverageStats | None = None):
    """Settle one coverage term afresh: its full state, distances included.

    Radius guard, then the kernel's dense ``(marks, dist, count)`` state
    (see :meth:`FragmentKernel.settle`); :func:`local_distance_map` reads
    it as a distance map.  The coverage cache holds no distances, so
    this path never touches it.
    """
    if term.radius > runtime.max_radius:
        raise RadiusExceededError(term.radius, runtime.max_radius)
    return runtime.kernel.settle(term, stats)


def term_members(runtime, term: CoverageTerm, stats: CoverageStats | None = None):
    """One term's membership ``R(source, r) ∩ P``: a cache hit or a fresh settle.

    The read set-valued queries take: a dense-id bitmask
    (:meth:`FragmentKernel.run` turns it into nodes).  A hit settles
    nothing, so it adds nothing to ``stats``.
    """
    cache = runtime.coverage_cache
    members = cache.get(term)
    if members is None:
        members = runtime.kernel.mask(settle_term(runtime, term, stats)[0])
        cache.put(term, members)
    return members


def local_distance_map(
    runtime: FragmentRuntime,
    term: CoverageTerm,
    stats: CoverageStats | None = None,
) -> dict[int, float]:
    """Exact distances from the term's source to members within the radius.

    The returned map is ``{A ∈ P : d(A, source) ≤ r} -> d(A, source)``,
    always from a fresh settle.
    """
    marks, dist, _count = settle_term(runtime, term, stats)
    return runtime.kernel.distances(marks, dist)


def describe_source(term: CoverageTerm) -> str:
    """A term's source as trace tags and hot-spot keys name it: keyword or ``#node``."""
    source = term.source
    return source.keyword if isinstance(source, KeywordSource) else f"#{source.node}"


def settle_terms(
    runtime, terms: Sequence[CoverageTerm], stats: CoverageStats | None = None
) -> list:
    """:func:`settle_term` for every term of one query, in term order.

    Duplicate ``(source, radius)`` terms — common in machine-written
    expressions such as ``AND(cafe:2, OR(cafe:2, fuel:3))`` — are
    settled once.
    """
    memo: dict[CoverageTerm, object] = {}
    for term in terms:
        if term not in memo:
            memo[term] = settle_term(runtime, term, stats)
    return [memo[term] for term in terms]


def coverage_members(
    runtime,
    terms: Sequence[CoverageTerm],
    stats: CoverageStats | None = None,
    *,
    records: list | None = None,
) -> list:
    """:func:`term_members` for every term of one query, in term order.

    How executors evaluate a set-valued D-function; duplicate terms are
    read once.  ``records`` (a traced task's stage list) gets one
    ``("eval", fragment, term index, start, end, cache, settled)`` row
    per *distinct* term: ``cache`` is ``hit|miss|off`` and ``settled``
    the term's member count.  The term's source and radius are not
    recorded; a reader finds them at ``terms[term index]``.
    """
    memo: dict[CoverageTerm, object] = {}
    for i, term in enumerate(terms):
        if term in memo:
            continue
        if records is None:
            memo[term] = term_members(runtime, term, stats)
            continue
        started = perf_counter()
        memo[term] = members = term_members(runtime, term, stats)
        records.append(
            (
                "eval",
                runtime.fragment.fragment_id,
                i,
                started,
                perf_counter(),
                runtime.coverage_cache.last,
                members.bit_count(),
            )
        )
    return [memo[term] for term in terms]


def batch_distance_maps(
    runtime: FragmentRuntime, terms: Sequence[CoverageTerm], stats: CoverageStats | None = None
) -> list[dict[int, float]]:
    """:func:`settle_terms` read as distance maps, in term order."""
    kernel = runtime.kernel
    return [kernel.distances(marks, dist) for marks, dist, _ in settle_terms(runtime, terms, stats)]


def local_coverage(
    runtime: FragmentRuntime,
    term: CoverageTerm,
    stats: CoverageStats | None = None,
) -> set[int]:
    """The fragment-local keyword coverage ``R(source, r) ∩ P``.

    Set-valued, so served from the coverage cache when it holds the term.
    """
    return set(runtime.kernel.run(term_members(runtime, term, stats)))
