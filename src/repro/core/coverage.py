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

Two interchangeable evaluators produce the step-3 search:

* the **compiled** path (default) hands the term to a packed
  :class:`~repro.core.kernel.FragmentKernel` — dense node ids, CSR
  adjacency, precompiled seed arrays — and gets back its dense
  ``(marks, dist, count)`` state, read as a bitmask by set-valued
  queries and as a distance map by explain/top-k;
* the **reference** path (``compiled=False``) runs the dict-based
  :func:`~repro.search.dijkstra.shortest_path_distances`, kept as the
  executable spec the differential tests pin the kernel against.

:func:`settle_term` is the one entry point to both (radius guard,
coverage cache, evaluator); distance maps are bit-identical either way,
see ``tests/test_kernel.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "local_coverage",
    "local_distance_map",
    "settle_term",
    "settle_terms",
    "sum_cache_stats",
]


@dataclass
class CoverageStats:
    """Work counters for one coverage evaluation (Theorem 5 bookkeeping)."""

    seeds_from_dl: int = 0
    seeds_local: int = 0
    settled_nodes: int = 0


class CacheStats(NamedTuple):
    """Coverage-cache counters: ``(hits, misses, skipped)``.

    ``skipped`` counts coverages *not* cached because they exceeded the
    runtime's ``cache_max_entry_nodes`` guard.
    """

    hits: int
    misses: int
    skipped: int


class CoverageCache:
    """LRU of settled coverages keyed by coverage term; capacity 0 = off.

    Holds whatever :func:`settle_term` got from the runtime's evaluator.
    ``last`` names the outcome of the most recent lookup-then-store
    (``hit``/``miss``/``skip``, or ``off``) for the traced ``eval`` span.
    """

    def __init__(self, capacity: int = 0, max_entry_nodes: int | None = None) -> None:
        self._capacity = max(0, capacity)
        self._max_entry_nodes = max_entry_nodes
        self._entries: dict[CoverageTerm, object] = {}
        self.hits = self.misses = self.skipped = 0
        self.last = "off"

    @property
    def stats(self) -> CacheStats:
        """``(hits, misses, skipped)`` so far."""
        return CacheStats(self.hits, self.misses, self.skipped)

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        self._entries.clear()

    def get(self, term: CoverageTerm):
        """The cached coverage for ``term`` (refreshing its LRU slot) or None."""
        if not self._capacity:
            return None
        found = self._entries.pop(term, None)
        if found is None:
            self.misses += 1
            self.last = "miss"
            return None
        self._entries[term] = found  # reinsert: most recently used
        self.hits += 1
        self.last = "hit"
        return found

    def put(self, term: CoverageTerm, found) -> None:
        """Cache a coverage, evicting the LRU entry if full.

        Coverages larger than ``max_entry_nodes`` are not cached — they
        are the fragment-sized outliers that would evict many small hot
        entries at once; the skip is counted.
        """
        if not self._capacity:
            return
        if self._max_entry_nodes is not None and _settled_count(found) > self._max_entry_nodes:
            self.skipped += 1
            self.last = "skip"
            return
        self._entries.pop(term, None)
        while len(self._entries) >= self._capacity:
            del self._entries[next(iter(self._entries))]
        self._entries[term] = found


class FragmentRuntime:
    """Query-time view of one fragment: ``P ∪ SC(P)`` plus DL lookups.

    ``compiled`` (default on) routes coverage evaluation through a
    packed :class:`~repro.core.kernel.FragmentKernel`; pass ``False``
    to force the dict-based reference path.  Either way the kernel is
    available lazily via :attr:`kernel` — benchmarks compare both
    evaluators on one runtime.

    ``cache_capacity`` enables an LRU :class:`CoverageCache` keyed by
    ``(source, radius)`` — query workloads repeat popular keywords at
    common radiuses, so hits skip the whole local Dijkstra.
    ``cache_max_entry_nodes`` bounds how large a coverage may be and
    still be cached: popular wide-radius terms can settle most of the
    fragment, and a handful of such entries would dominate worker memory
    for little hit-rate gain.  Skips are counted in the cache's ``stats``.

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
        cache_max_entry_nodes: int | None = None,
        compiled: bool = True,
    ) -> None:
        if fragment.fragment_id != index.fragment_id:
            raise QueryError(
                f"fragment {fragment.fragment_id} paired with index for "
                f"fragment {index.fragment_id}"
            )
        self._fragment = fragment
        self._index = index
        self._compiled = bool(compiled)
        self._kernel: FragmentKernel | None = None
        self._index_version = index.version
        self._cache = CoverageCache(cache_capacity, cache_max_entry_nodes)
        self._build_extended()
        if self._compiled:
            self._kernel = FragmentKernel(fragment, index)

    def _build_extended(self) -> None:
        # Alg. 2 step 1: read the edges of the complete fragment P ∪ SC(P).
        extended: dict[int, list[tuple[int, float]]] = {
            node: list(edges) for node, edges in self._fragment.adjacency.items()
        }
        for (u, v), w in self._index.shortcuts.items():
            extended.setdefault(u, []).append((v, w))
            if not self._fragment.directed:
                extended.setdefault(v, []).append((u, w))
        self._extended: dict[int, tuple[tuple[int, float], ...]] = {
            node: tuple(edges) for node, edges in extended.items()
        }

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
    def compiled(self) -> bool:
        """Whether coverage evaluation routes through the packed kernel."""
        return self._compiled

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
        self._build_extended()

    def adjacency(self, node: int) -> tuple[tuple[int, float], ...]:
        """Out-edges of ``node`` in the complete fragment ``P ∪ SC(P)``."""
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


def _reference_distances(
    runtime: FragmentRuntime, term: CoverageTerm, stats: CoverageStats | None
) -> dict[int, float]:
    """The dict-based evaluator (``compiled=False``): the executable spec."""
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


def _settled_count(found) -> int:
    return len(found) if isinstance(found, dict) else found[2]


def settle_term(runtime, term: CoverageTerm, stats: CoverageStats | None = None):
    """Evaluate one coverage term on one fragment — the single entry point.

    Radius guard, coverage cache, then the runtime's evaluator.  A
    compiled runtime returns the kernel's dense ``(marks, dist, count)``
    state (see :meth:`FragmentKernel.settle`), a reference runtime its
    ``{member: distance}`` dict; :func:`local_distance_map` reads either
    as a distance map.
    """
    if term.radius > runtime.max_radius:
        raise RadiusExceededError(term.radius, runtime.max_radius)
    cache = runtime.coverage_cache
    found = cache.get(term)
    if found is not None:
        if stats is not None:
            stats.settled_nodes += _settled_count(found)
        return found
    if runtime.compiled:
        found = runtime.kernel.settle(term, stats)
    else:
        found = _reference_distances(runtime, term, stats)
    cache.put(term, found)
    return found


def _distance_view(runtime, found) -> dict[int, float]:
    return found if isinstance(found, dict) else runtime.kernel.distances(found[0], found[1])


def local_distance_map(
    runtime: FragmentRuntime,
    term: CoverageTerm,
    stats: CoverageStats | None = None,
) -> dict[int, float]:
    """Exact distances from the term's source to members within the radius.

    The returned map is ``{A ∈ P : d(A, source) ≤ r} -> d(A, source)``.
    """
    return _distance_view(runtime, settle_term(runtime, term, stats))


def _describe_source(term: CoverageTerm) -> str:
    source = term.source
    return source.keyword if isinstance(source, KeywordSource) else f"#{source.node}"


def settle_terms(
    runtime,
    terms: Sequence[CoverageTerm],
    stats: CoverageStats | None = None,
    *,
    collector=None,
    parent_id: str | None = None,
) -> list:
    """:func:`settle_term` for every term of one query, in term order.

    How executors evaluate a k-term D-function: duplicate ``(source,
    radius)`` terms — common in machine-written expressions such as
    ``AND(cafe:2, OR(cafe:2, fuel:3))`` — are evaluated once.

    ``collector`` (a :class:`repro.obs.trace.SpanCollector`, duck-typed
    so this module stays obs-agnostic) records one ``eval`` span per
    *evaluated* term, tagged with the term's source/radius, the
    settled-node count and ``cache=hit|miss|skip|off``.
    """
    memo: dict[CoverageTerm, object] = {}
    for i, term in enumerate(terms):
        if term in memo:
            continue
        if collector is None:
            memo[term] = settle_term(runtime, term, stats)
            continue
        with collector.span(
            "eval",
            parent_id=parent_id,
            fragment_id=runtime.fragment.fragment_id,
            term=i,
            source=_describe_source(term),
            radius=term.radius,
        ) as span:
            memo[term] = settle_term(runtime, term, stats)
        span.tags["cache"] = runtime.coverage_cache.last
        span.tags["settled"] = _settled_count(memo[term])
    return [memo[term] for term in terms]


def batch_distance_maps(
    runtime: FragmentRuntime, terms: Sequence[CoverageTerm], stats: CoverageStats | None = None
) -> list[dict[int, float]]:
    """:func:`settle_terms` read as distance maps, in term order."""
    return [_distance_view(runtime, found) for found in settle_terms(runtime, terms, stats)]


def local_coverage(
    runtime: FragmentRuntime,
    term: CoverageTerm,
    stats: CoverageStats | None = None,
) -> set[int]:
    """The fragment-local keyword coverage ``R(source, r) ∩ P``."""
    return set(local_distance_map(runtime, term, stats))
