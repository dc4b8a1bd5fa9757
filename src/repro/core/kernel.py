"""Compiled fragment kernel: the packed query-time runtime (perf tentpole).

The reference query path (:mod:`repro.core.coverage`) evaluates every
coverage term with a dict-of-tuples adjacency callable and fresh
``dict``/heap state per term.  That is the clearest possible rendering
of Alg. 2 — and, per Theorem 5, exactly the per-query CPU the whole
system's unit economics stand on.  :class:`FragmentKernel` compiles one
fragment's query-time state into flat structures so repeated coverage
evaluations allocate two flat objects per search and nothing per node:

* **Dense renumbering** — the member nodes of the extended fragment
  ``P ∪ SC(P)`` are renumbered ``0..n-1`` (sorted global order), so all
  per-node state lives in flat sequences instead of hash maps.
* **CSR adjacency** — ``indptr``/``indices``/``weights`` as stdlib
  :mod:`array` arrays (``'q'`` ints / ``'d'`` doubles; no numpy).  The
  CSR is the canonical compact layout; a per-row tuple view derived
  from it (`_rows`) is what the interpreter loop iterates, because
  CPython unpacks a prebuilt ``(node, weight)`` tuple faster than it
  re-boxes two ``array`` elements per edge.
* **Precompiled seed lists** — per keyword, the fragment-local carriers
  (zero-weight seeds) and the DL value list with its portals renumbered
  to dense ids; the distance array is the index's own (one pair per
  portal, distance-sorted — :data:`~repro.core.npd.ValueList`), so one
  :func:`bisect.bisect_right` replaces the query-time scan-and-merge;
  likewise per DL node entry.
* **Dense settle state** — a search fills two flat per-search objects
  indexed by dense id: a ``marks`` bytearray (1 = settled) and a
  ``dist`` list pre-filled with ``nextafter(radius, inf)``, so a
  relaxation is the single test ``nd < dist[v]`` (it implies
  ``nd <= radius``) and no clearing or stamping is ever needed.  Both
  views of a coverage come from that one state: set-valued queries take
  :meth:`mask` — one bit per dense id, so at most ⌈n/8⌉ bytes, small
  enough to keep in a per-fragment cache — and combine masks with
  ``|``, ``&``, ``& ~``; top-k callers take :meth:`distances`, explain
  callers :meth:`columns`.  Dense ids follow sorted global order, so
  :meth:`run` turns a result mask into an already-sorted ``array('Q')``
  of global ids.
* **Bounded bucket queue** — every coverage search is truncated at the
  term radius (at most ``maxR`` on a bounded level, Theorem 3), and
  edge weights have a positive minimum ``δ``, so the frontier fits a
  Dial-style bucket array of width ``δ`` (the "approximate buckets" of
  Cherkassky–Goldberg–Radzik): labels are final when their bucket is
  swept, so the search is *exact* with O(1) pushes/pops instead of the
  binary heap's O(log n) sifting (invariant: ``_settle_buckets``).  The
  bucket array is shared and self-draining, so repeated terms reuse it
  allocation-free.  When ``radius/δ`` is too large for buckets to pay
  off (or the radius is unbounded), the kernel falls back to a
  binary-heap search over the same state.

Distances are bit-for-bit identical to the reference path: every path
relaxes edge-by-edge with the same ``d + w`` accumulation and the same
``nd <= bound`` truncation, and a node's final label is the minimum of
the same float candidates regardless of settle order, so the
differential tests can require exact float equality of whole distance
maps (directed and undirected, tie-heavy weights included).  The
bucket width is shrunk by one part in 10⁹ below ``δ`` so that float
rounding in the bucket index can never place a label one bucket early.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from itertools import compress
from math import inf, nextafter

from repro.core.fragment import Fragment
from repro.core.npd import NPDIndex
from repro.core.queries import CoverageTerm, KeywordSource, NodeSource
from repro.core.runs import EMPTY_RUN
from repro.exceptions import QueryError

__all__ = ["FragmentKernel"]

# What a search with no seed within the radius returns, before any state
# is allocated: every view of it (mask 0, ``{}``) falls out of the
# ordinary code.
_NOTHING: tuple[bytes, tuple, int] = (b"", (), 0)

# Marks (0/1 bytes) <-> base-2 digits, for the bitmask conversions.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class FragmentKernel:
    """Packed, reusable query-time state for one fragment.

    Build once per ``(fragment, index)`` pair — typically via
    :class:`~repro.core.coverage.FragmentRuntime` — then call :meth:`settle`
    per coverage term and read the result as a mask or as distances.
    Instances are picklable (plain arrays/dicts/tuples), so process
    workers can ship or rebuild them freely.  Not thread-safe: the
    bucket array is shared across calls by design.
    """

    __slots__ = (
        "fragment_id",
        "num_nodes",
        "indptr",
        "indices",
        "weights",
        "bucket_limit",
        "_globals",
        "_rows",
        "_kw_local",
        "_kw_portals",
        "_node_portals",
        "_inv_delta",
        "_buckets",
    )

    def __init__(self, fragment: Fragment, index: NPDIndex) -> None:
        if fragment.fragment_id != index.fragment_id:
            raise QueryError(
                f"fragment {fragment.fragment_id} paired with index for "
                f"fragment {index.fragment_id}"
            )
        self.fragment_id = fragment.fragment_id

        # Dense renumbering over the members of P (shortcut endpoints are
        # members by Rule 1, so this is the full node set of P ∪ SC(P)).
        ordered = sorted(fragment.members)
        dense = {node: i for i, node in enumerate(ordered)}
        n = len(ordered)
        self.num_nodes = n
        self._globals = tuple(ordered)

        # Extended adjacency (fragment edges + SC shortcuts) as CSR.
        rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for node, edges in fragment.adjacency.items():
            row = rows[dense[node]]
            for v, w in edges:
                row.append((dense[v], w))
        for (u, v), w in index.shortcuts.items():
            rows[dense[u]].append((dense[v], w))
            if not fragment.directed:
                rows[dense[v]].append((dense[u], w))
        indptr, indices, weights = array("q", [0]), array("q"), array("d")
        for row in rows:
            for v, w in row:
                indices.append(v)
                weights.append(w)
            indptr.append(len(indices))
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._rows = _row_view(indptr, indices, weights, n)

        # Seed tables.  Local carriers per keyword (zero-weight seeds).
        self._kw_local: dict[str, tuple[int, ...]] = {
            kw: tuple(dense[node] for node in nodes)
            for kw, nodes in fragment.keyword_index.to_postings().items()
        }
        # DL value lists with dense portal ids; the distances are shared
        # with the index, read-only.
        self._kw_portals = {
            kw: _to_dense(entry, dense.__getitem__) for kw, entry in index.keyword_entries.items()
        }
        self._node_portals = {
            node: _to_dense(entry, dense.__getitem__) for node, entry in index.node_entries.items()
        }

        # Bucket-queue compilation: with bucket width just under the
        # minimum edge weight, no relaxation can land inside the bucket
        # currently being swept, so bucket order is settle order (exact
        # Dijkstra without a heap).  ``bucket_limit`` caps how many
        # buckets a single search may sweep before the kernel falls back
        # to the binary heap (pathologically small δ, unbounded radius).
        delta = min(weights) if weights else 0.0
        self._inv_delta = 1.0 / (delta * (1.0 - 1e-9)) if delta > 0.0 else 0.0
        self._buckets: list[list[int]] = []
        self.bucket_limit = 4 * n + 64

    @classmethod
    def from_packed(
        cls,
        *,
        fragment_id: int,
        num_nodes: int,
        indptr,
        indices,
        weights,
        node_globals,
        kw_local,
        kw_portals,
        node_portals,
        inv_delta: float,
        bucket_limit: int,
    ) -> "FragmentKernel":
        """Rehydrate a kernel from already-packed flat sequences.

        This is the shared-memory attach path (:mod:`repro.shm`): the
        CSR arguments may be :class:`memoryview` casts over a mapped
        segment.  The per-row tuple view and the global-id tuple
        (scanned once per result by :meth:`run`/:meth:`distances`, where
        ready ``int`` objects beat re-boxing a view) are rebuilt locally
        — CPU in the attaching process, nothing crosses the pipe.
        """
        self = object.__new__(cls)
        self.fragment_id = fragment_id
        self.num_nodes = num_nodes
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._globals = tuple(node_globals)
        self._rows = _row_view(indptr, indices, weights, num_nodes)
        self._kw_local = kw_local
        self._kw_portals = kw_portals
        self._node_portals = node_portals
        self._inv_delta = inv_delta
        self._buckets = []
        self.bucket_limit = bucket_limit
        return self

    @staticmethod
    def seed_patch(fragment: Fragment, index: NPDIndex, keys) -> dict:
        """The recompiled seed lists of ``keys``, in global node ids.

        What a keyword-only epoch ships instead of a kernel: per key
        (a keyword, or the node of a DL node entry) its fragment-local
        carriers and its DL value list as the index holds it; ``None``
        where the index no longer has the entry.  A few hundred bytes,
        applied by :meth:`apply_seed_patch`.
        """
        patch = {}
        for key in keys:
            if isinstance(key, str):
                local = fragment.keyword_index.local_nodes_with(key)
                entry = index.keyword_entries.get(key)
            else:
                local, entry = (), index.node_entries.get(key)
            patch[key] = (local, entry)
        return patch

    def apply_seed_patch(self, patch: dict) -> None:
        """Overwrite the seed lists a :meth:`seed_patch` names, in place.

        Afterwards the three seed tables equal those of a kernel
        compiled fresh from the patch's ``(fragment, index)``; the CSR —
        the part that may live in shared memory — is not read or written.
        """
        dense = self._dense_id
        for key, (local, entry) in patch.items():
            if isinstance(key, str):
                table = self._kw_portals
                if local:
                    self._kw_local[key] = tuple(map(dense, local))
                else:
                    self._kw_local.pop(key, None)
            else:
                table = self._node_portals
            if entry is None:
                table.pop(key, None)
            else:
                table[key] = _to_dense(entry, dense)

    def _dense_id(self, node: int) -> int | None:
        """Global node id -> dense id, or ``None`` if not a member.

        A bisect over the sorted global table: the only caller is the
        :class:`NodeSource` seed lookup, once per search, which a
        renumbering dict kept per kernel would not repay.
        """
        i = bisect_left(self._globals, node)
        if i < self.num_nodes and self._globals[i] == node:
            return i
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_cells(self) -> dict[str, int]:
        """Element counts of the packed layout (size accounting)."""
        return {
            "csr_cells": len(self.indptr) + 2 * len(self.indices),
            "keyword_seed_cells": sum(
                len(ids) * 2 for ids, _d in self._kw_portals.values()
            )
            + sum(len(v) for v in self._kw_local.values()),
            "node_seed_cells": sum(len(ids) * 2 for ids, _d in self._node_portals.values()),
            "scratch_cells": 2 * self.num_nodes,  # marks + dist, per search
        }

    # ------------------------------------------------------------------
    # Coverage evaluation
    # ------------------------------------------------------------------
    def settle(self, term: CoverageTerm, stats=None) -> tuple[bytes | bytearray, list | tuple, int]:
        """Run the coverage search for one term (Alg. 2): ``(marks, dist, count)``.

        ``marks[v] == 1`` iff dense node ``v`` lies within the radius,
        and then ``dist[v]`` is its exact distance; ``count`` is how many
        do.  Every caller reads this one state — :meth:`mask` is the
        coverage bitmask, :meth:`distances` the ``{member: distance}``
        map — so there is a single search path whatever the query needs.
        ``stats`` is an optional :class:`~repro.core.coverage.CoverageStats`
        to update.
        """
        radius = term.radius
        source = term.source
        local: tuple[int, ...] = ()
        if isinstance(source, KeywordSource):
            local = self._kw_local.get(source.keyword, ())
            entry = self._kw_portals.get(source.keyword)
        elif isinstance(source, NodeSource):
            v = self._dense_id(source.node)
            if v is not None:
                local, entry = (v,), None
            else:
                entry = self._node_portals.get(source.node)
        else:  # pragma: no cover - the Source union is closed
            raise QueryError(f"unsupported coverage source {source!r}")
        cut = bisect_right(entry[1], radius) if entry is not None else 0
        if not local and not cut:
            return _NOTHING

        n = self.num_nodes
        marks = bytearray(n)
        dist = [nextafter(radius, inf)] * n
        seeds = list(local)  # dense ids; labels live in ``dist``
        for v in local:
            dist[v] = 0.0
        if cut:
            ids, dists = entry
            for i in range(cut):
                v = ids[i]
                if dists[i] < dist[v]:  # local zero seed wins (DL dists > 0)
                    dist[v] = dists[i]
                    seeds.append(v)
        inv = self._inv_delta
        if inv > 0.0 and radius * inv <= self.bucket_limit:
            self._settle_buckets(seeds, radius, marks, dist)
        else:
            self._settle_heap(seeds, marks, dist)
        settled = marks.count(1)
        if stats is not None:
            stats.seeds_local += len(local)
            stats.seeds_from_dl += len(seeds) - len(local)
            stats.settled_nodes += settled
        return marks, dist, settled

    @staticmethod
    def mask(marks) -> int:
        """The bitmask of one settled state: bit ``v`` set iff ``marks[v]``.

        Three C-level passes over the ``n`` marks (bytes to ASCII digits,
        reversed, parsed in base 2); the int holds ⌈n/8⌉ bytes of bits.
        """
        return int(marks.translate(_TO_DIGITS)[::-1], 2) if marks else 0

    def distances(self, marks, dist) -> dict[int, float]:
        """The exact ``{member: distance}`` map of one settled state."""
        if marks.count(1) * 32 > len(marks):
            return dict(zip(compress(self._globals, marks), compress(dist, marks)))
        return {self._globals[i]: dist[i] for i in _hops(marks)}

    def run(self, mask: int) -> array:
        """The sorted global-id run of a dense-id bitmask."""
        if not mask:
            return EMPTY_RUN
        raw = _marks_of(mask)
        if mask.bit_count() * 32 > self.num_nodes:
            return array("Q", compress(self._globals, raw))
        return array("Q", map(self._globals.__getitem__, _hops(raw)))

    def columns(self, mask: int, settled: list, radii) -> list[array]:
        """Per-term distances of the nodes of :meth:`run` ``(mask)``, in run order.

        One ``array('d')`` per settled state in ``settled``: the exact
        distance where the node lies within that term's radius, and the
        search's initial label ``nextafter(radius, inf)`` — "farther than
        the radius" — where it does not (a state with no seed in reach
        has no ``dist`` to read it from).
        """
        raw = _marks_of(mask)
        return [
            array("d", compress(dist, raw))
            if dist
            else array("d", [nextafter(radius, inf)]) * mask.bit_count()
            for (_marks, dist, _count), radius in zip(settled, radii)
        ]

    def _settle_buckets(self, seeds: list[int], radius: float, marks: bytearray, dist: list) -> None:
        """Bucket-queue settle loop (the fast path for bounded radii).

        Invariant: bucket width < min edge weight, so a relaxation from
        a node settling in bucket ``k`` always lands in bucket ``> k``
        (real arithmetic gives ``≥ k+1`` with a 1e-9 relative margin
        that dwarfs float rounding in the index).  Labels are therefore
        final when their bucket's sweep starts, *and* a bucket never
        grows while it is being swept — so each bucket is iterated
        with a plain ``for`` (no per-entry ``pop()`` call) and cleared
        afterwards, leaving the shared bucket array empty for the next
        term.  A settled node's label is a lower bound on every later
        candidate, so ``nd < dist[v]`` alone rejects it; stale duplicate
        entries are skipped via ``marks``.
        """
        rows = self._rows
        inv = self._inv_delta
        buckets = self._buckets
        need = int(radius * inv) + 1
        while len(buckets) < need:
            buckets.append([])
        for v in seeds:
            buckets[int(dist[v] * inv)].append(v)
        for k in range(need):
            b = buckets[k]
            if not b:
                continue
            for u in b:
                if marks[u]:  # already settled via a shorter duplicate
                    continue
                marks[u] = 1
                d = dist[u]
                for v, w in rows[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        buckets[int(nd * inv)].append(v)
            del b[:]

    def _settle_heap(self, seeds: list[int], marks: bytearray, dist: list) -> None:
        """Binary-heap settle loop (fallback for unbounded/huge radii)."""
        rows = self._rows
        heap = [(dist[v], v) for v in seeds]
        heapify(heap)
        push = heappush
        pop = heappop
        while heap:
            d, u = pop(heap)
            if marks[u]:  # superseded by a shorter push, settled since
                continue
            marks[u] = 1
            for v, w in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))


def _marks_of(mask: int) -> bytes:
    """A bitmask back as marks, one 0/1 byte per dense id up to its top bit."""
    return format(mask, "b").encode()[::-1].translate(_FROM_DIGITS)


def _hops(marks):
    """Indexes of the 1-bytes of ``marks``, ascending.

    For sparse states (a point query's few nodes): memchr hops between
    the set bytes beat visiting every member below ~n/24 of them.
    """
    i = marks.find(1)
    while i >= 0:
        yield i
        i = marks.find(1, i + 1)


def _row_view(indptr, indices, weights, n: int) -> tuple:
    """Hot-loop view derived from the CSR: ``((node, weight), …)`` per row.

    Tuple unpack beats per-element array indexing in the interpreter.
    """
    return tuple(
        tuple(zip(indices[indptr[i] : indptr[i + 1]], weights[indptr[i] : indptr[i + 1]]))
        for i in range(n)
    )


def _to_dense(entry, dense) -> tuple[array, array]:
    """A DL value list with new, ``dense``-renumbered portals and its own distances."""
    portals, distances = entry
    return array("q", list(map(dense, portals))), distances
