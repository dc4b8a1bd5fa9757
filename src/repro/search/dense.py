"""Bounded search over a whole road network on dense per-node state.

The discipline of :mod:`repro.core.kernel`, applied to the global graph:
a per-row tuple view of one CSR direction, a ``dist`` list pre-filled
with ``nextafter(radius, inf)`` (so ``nd < dist[v]`` is the relaxation
*and* the truncation test), a ``marks`` bytearray, and Dial buckets just
narrower than the minimum edge weight — or a binary heap over the same
state when ``radius/δ`` exceeds the bucket limit or is unbounded.

Each search also carries one int *tag* per node: the OR of ``own[u]``
over the nodes ``u`` strictly inside a shortest path from the sources.
It is written when a label is relaxed and combined when a label ties
(``nd == dist[v]``): AND by default (a bit survives only if *every*
shortest path sets it), OR under ``strict``.  A tight predecessor is
strictly closer than its successor, hence settled in an earlier bucket
or pop, so a tag is final when its node settles and no result depends
on settle order.  Index construction (``own`` = membership in ``P``) and
live maintenance (``own`` = one bit per fragment) are both this loop.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf, nextafter
from typing import Sequence

__all__ = ["DenseSearch"]


class DenseSearch:
    """Row view of one direction of a network, built once per topology.

    ``reverse`` selects the in-arc CSR (backward search; the same rows
    on undirected networks).  Keyword edits share adjacency, so only an
    edge-weight change makes an instance stale.  Not thread-safe: the
    bucket array is shared across calls and self-draining.
    """

    __slots__ = ("rows", "bucket_limit", "_inv_delta", "_buckets")

    def __init__(self, network, *, reverse: bool = False) -> None:
        row_of = network.in_neighbor_slice if reverse else network.neighbor_slice
        slices = [row_of(u) for u in network.nodes()]  # (all nbrs, all weights, lo, hi)
        self.rows = tuple(tuple(zip(nbrs[lo:hi], wts[lo:hi])) for nbrs, wts, lo, hi in slices)
        delta = min(slices[0][1], default=0.0) if slices else 0.0
        self._inv_delta = 1.0 / (delta * (1.0 - 1e-9)) if delta > 0.0 else 0.0
        self._buckets: list[list[int]] = []
        self.bucket_limit = 4 * len(slices) + 64

    def run(
        self, sources: Sequence[int], radius: float, own: Sequence[int], strict: bool = False
    ) -> tuple[list[int], list[float], list[int]]:
        """Settle every node within ``radius`` of ``sources``: ``(order, dist, tag)``.

        ``order`` lists the settled nodes (sources first), ``dist[v]`` is
        exact for each of them and ``tag[v]`` is the module docstring's
        interior tag.  Weights are positive, so ``d == 0`` marks a source:
        an endpoint of every path, whose ``own`` never enters a tag.
        """
        rows = self.rows
        n = len(rows)
        dist = [nextafter(radius, inf)] * n
        tag = [0] * n
        marks = bytearray(n)
        order: list[int] = []
        settle = order.append
        for s in sources:
            dist[s] = 0.0
        inv = self._inv_delta
        if inv > 0.0 and radius * inv <= self.bucket_limit:
            # Width < min weight: a relaxation lands in a later bucket,
            # so labels and tags are final when their bucket is swept.
            buckets = self._buckets
            need = int(radius * inv) + 1
            while len(buckets) < need:
                buckets.append([])
            buckets[0].extend(sources)
            for b in filter(None, buckets[:need]):  # lazily: a bucket fills before its turn
                for u in b:
                    if marks[u]:  # stale duplicate of a shorter label
                        continue
                    marks[u] = 1
                    settle(u)
                    d = dist[u]
                    c = (tag[u] | own[u]) if d else 0
                    for v, w in rows[u]:
                        nd = d + w
                        if nd <= dist[v]:  # one test rejects most arcs
                            if nd < dist[v]:
                                dist[v] = nd
                                tag[v] = c
                                buckets[int(nd * inv)].append(v)
                            else:
                                tag[v] = (tag[v] | c) if strict else (tag[v] & c)
                del b[:]
        else:
            heap = [(0.0, s) for s in sources]
            while heap:
                d, u = heappop(heap)
                if marks[u]:
                    continue
                marks[u] = 1
                settle(u)
                c = (tag[u] | own[u]) if d else 0
                for v, w in rows[u]:
                    nd = d + w
                    if nd <= dist[v]:
                        if nd < dist[v]:
                            dist[v] = nd
                            tag[v] = c
                            heappush(heap, (nd, v))
                        else:
                            tag[v] = (tag[v] | c) if strict else (tag[v] & c)
        return order, dist, tag
