"""The road-network graph of paper Definition 1.

A road network ``G(V, E, W, K, L)`` is an edge-weighted graph whose nodes
are either *road junctions* or *objects* (points of interest); objects
carry a set of keywords drawn from a vocabulary.  The paper works with
undirected graphs and notes the method "can be easily adapted for the
directed graph"; :class:`RoadNetwork` supports both modes.

The class is immutable and backed by a CSR (compressed sparse row)
adjacency so that the Dijkstra-heavy index construction and query
evaluation iterate neighbours without per-call allocation.  Instances are
produced by :class:`repro.graph.build.RoadNetworkBuilder` or the
generators in :mod:`repro.graph.generators`.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import GraphError, NodeNotFoundError

__all__ = ["NO_KEYWORDS", "NodeKind", "RoadNetwork", "keyword_set"]

# The keyword set of every keyword-free node.  Junctions are most of a
# road network, and one empty frozenset each cost bri_mini 2.9 MiB.
NO_KEYWORDS: frozenset[str] = frozenset()


def keyword_set(keywords: Iterable[str]) -> frozenset[str]:
    """``keywords`` as a frozenset; every empty one is :data:`NO_KEYWORDS`."""
    return frozenset(keywords) or NO_KEYWORDS


class NodeKind(IntEnum):
    """Whether a node is a bare road junction or a keyword-bearing object."""

    JUNCTION = 0
    OBJECT = 1


class RoadNetwork:
    """Immutable weighted graph with per-node keyword sets.

    Do not call the constructor directly in application code; use
    :class:`repro.graph.build.RoadNetworkBuilder`.  The constructor
    validates the CSR arrays it is handed so that a malformed builder bug
    fails loudly here rather than deep inside a search.

    Parameters
    ----------
    offsets, neighbors, weights:
        CSR adjacency of the *forward* direction.  ``offsets`` has
        ``num_nodes + 1`` entries; the neighbours of ``u`` are
        ``neighbors[offsets[u]:offsets[u + 1]]`` with matching weights.
        For undirected networks every edge appears in both endpoint rows.
    kinds:
        One :class:`NodeKind` per node.
    keywords:
        One ``frozenset`` of keyword strings per node (empty for
        junctions).
    positions:
        Optional ``(x, y)`` coordinates per node; generators always fill
        them, hand-built graphs may pass ``None``.
    directed:
        When true, ``offsets``/``neighbors``/``weights`` describe out-edges
        and ``reverse`` must hold the in-edge CSR.
    reverse:
        ``(roffsets, rneighbors, rweights)`` for directed graphs.
    """

    __slots__ = (
        "_offsets",
        "_neighbors",
        "_weights",
        "_kinds",
        "_keywords",
        "_positions",
        "_directed",
        "_roffsets",
        "_rneighbors",
        "_rweights",
        "_num_edges",
        "_avg_edge_weight",
    )

    def __init__(
        self,
        offsets: Sequence[int],
        neighbors: Sequence[int],
        weights: Sequence[float],
        kinds: Sequence[NodeKind],
        keywords: Sequence[frozenset[str]],
        positions: Sequence[tuple[float, float]] | None = None,
        directed: bool = False,
        reverse: tuple[Sequence[int], Sequence[int], Sequence[float]] | None = None,
    ) -> None:
        num_nodes = len(offsets) - 1
        if num_nodes < 0:
            raise GraphError("offsets must contain at least one entry")
        if len(neighbors) != len(weights):
            raise GraphError("neighbors and weights must have equal length")
        if offsets[0] != 0 or offsets[-1] != len(neighbors):
            raise GraphError("CSR offsets are inconsistent with the adjacency length")
        if len(kinds) != num_nodes or len(keywords) != num_nodes:
            raise GraphError("kinds/keywords length must equal the node count")
        if positions is not None and len(positions) != num_nodes:
            raise GraphError("positions length must equal the node count")
        if directed and reverse is None:
            raise GraphError("directed networks require the reverse CSR")
        if not directed and reverse is not None:
            raise GraphError("undirected networks must not carry a reverse CSR")

        self._offsets = tuple(offsets)
        self._neighbors = tuple(neighbors)
        self._weights = tuple(weights)
        self._kinds = tuple(NodeKind(k) for k in kinds)
        self._keywords = tuple(keyword_set(ks) for ks in keywords)
        self._positions = tuple(positions) if positions is not None else None
        self._directed = bool(directed)
        if reverse is not None:
            roffsets, rneighbors, rweights = reverse
            if roffsets[0] != 0 or roffsets[-1] != len(rneighbors):
                raise GraphError("reverse CSR offsets are inconsistent")
            if len(roffsets) - 1 != num_nodes:
                raise GraphError("reverse CSR node count mismatch")
            self._roffsets = tuple(roffsets)
            self._rneighbors = tuple(rneighbors)
            self._rweights = tuple(rweights)
        else:
            self._roffsets = self._offsets
            self._rneighbors = self._neighbors
            self._rweights = self._weights

        arc_count = len(self._neighbors)
        self._num_edges = arc_count if directed else arc_count // 2
        total = sum(self._weights)
        if self._num_edges:
            divisor = arc_count if directed else arc_count
            self._avg_edge_weight = total / divisor if divisor else 0.0
        else:
            self._avg_edge_weight = 0.0

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (junctions plus objects)."""
        return len(self._offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of edges (undirected edges counted once)."""
        return self._num_edges

    @property
    def directed(self) -> bool:
        """Whether the network is directed."""
        return self._directed

    @property
    def average_edge_weight(self) -> float:
        """Mean edge weight ``ē`` — the unit of the paper's ``maxR = λ·ē``."""
        return self._avg_edge_weight

    @property
    def has_positions(self) -> bool:
        """Whether nodes carry ``(x, y)`` coordinates."""
        return self._positions is not None

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "directed" if self._directed else "undirected"
        return (
            f"RoadNetwork({mode}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"objects={self.num_objects()})"
        )

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Yield ``(neighbor, weight)`` for every out-edge of ``node``."""
        self._check_node(node)
        lo, hi = self._offsets[node], self._offsets[node + 1]
        nbrs, wts = self._neighbors, self._weights
        for i in range(lo, hi):
            yield nbrs[i], wts[i]

    def in_neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Yield ``(neighbor, weight)`` for every in-edge of ``node``.

        On undirected networks this is identical to :meth:`neighbors`.
        """
        self._check_node(node)
        lo, hi = self._roffsets[node], self._roffsets[node + 1]
        nbrs, wts = self._rneighbors, self._rweights
        for i in range(lo, hi):
            yield nbrs[i], wts[i]

    def neighbor_slice(self, node: int) -> tuple[tuple[int, ...], tuple[float, ...], int, int]:
        """Return the raw CSR row bounds for hot loops.

        Returns ``(neighbors, weights, lo, hi)`` so a Dijkstra inner loop
        can index the shared tuples directly instead of going through a
        generator.
        """
        self._check_node(node)
        return self._neighbors, self._weights, self._offsets[node], self._offsets[node + 1]

    def in_neighbor_slice(
        self, node: int
    ) -> tuple[tuple[int, ...], tuple[float, ...], int, int]:
        """Raw reverse-CSR row bounds (same contract as :meth:`neighbor_slice`)."""
        self._check_node(node)
        return (
            self._rneighbors,
            self._rweights,
            self._roffsets[node],
            self._roffsets[node + 1],
        )

    def degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        self._check_node(node)
        return self._offsets[node + 1] - self._offsets[node]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge (arc, if directed) ``u -> v`` exists."""
        self._check_node(u)
        self._check_node(v)
        lo, hi = self._offsets[u], self._offsets[u + 1]
        return v in self._neighbors[lo:hi]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises :class:`GraphError` if absent."""
        self._check_node(u)
        self._check_node(v)
        lo, hi = self._offsets[u], self._offsets[u + 1]
        for i in range(lo, hi):
            if self._neighbors[i] == v:
                return self._weights[i]
        raise GraphError(f"no edge between {u} and {v}")

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate edges as ``(u, v, weight)``.

        Undirected edges are yielded once, with ``u < v``.
        """
        for u in range(self.num_nodes):
            lo, hi = self._offsets[u], self._offsets[u + 1]
            for i in range(lo, hi):
                v = self._neighbors[i]
                if self._directed or u < v:
                    yield u, v, self._weights[i]

    # ------------------------------------------------------------------
    # Node attributes
    # ------------------------------------------------------------------
    def kind(self, node: int) -> NodeKind:
        """The :class:`NodeKind` of ``node``."""
        self._check_node(node)
        return self._kinds[node]

    def is_object(self, node: int) -> bool:
        """Whether ``node`` is an object (point of interest)."""
        self._check_node(node)
        return self._kinds[node] is NodeKind.OBJECT

    def keywords(self, node: int) -> frozenset[str]:
        """Keyword set of ``node`` (empty for junctions)."""
        self._check_node(node)
        return self._keywords[node]

    def has_keyword(self, node: int, keyword: str) -> bool:
        """Whether ``node`` carries ``keyword``."""
        self._check_node(node)
        return keyword in self._keywords[node]

    def position(self, node: int) -> tuple[float, float]:
        """The ``(x, y)`` coordinate of ``node``.

        Raises :class:`GraphError` when the network has no coordinates.
        """
        self._check_node(node)
        if self._positions is None:
            raise GraphError("this road network carries no coordinates")
        return self._positions[node]

    def nodes(self) -> range:
        """All node ids, as a ``range``."""
        return range(self.num_nodes)

    def object_nodes(self) -> Iterator[int]:
        """Iterate node ids of object nodes."""
        for node, kind in enumerate(self._kinds):
            if kind is NodeKind.OBJECT:
                yield node

    def num_objects(self) -> int:
        """Number of object nodes."""
        return sum(1 for k in self._kinds if k is NodeKind.OBJECT)

    def keyword_nodes(self, keyword: str) -> Iterator[int]:
        """Iterate nodes carrying ``keyword`` (linear scan).

        For repeated lookups build a
        :class:`repro.text.inverted.InvertedIndex` instead.
        """
        for node, kws in enumerate(self._keywords):
            if keyword in kws:
                yield node

    def all_keywords(self) -> frozenset[str]:
        """The keyword vocabulary actually used by this network."""
        vocab: set[str] = set()
        for kws in self._keywords:
            vocab.update(kws)
        return frozenset(vocab)

    # ------------------------------------------------------------------
    # Whole-graph helpers
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the network is (weakly) connected."""
        if self.num_nodes == 0:
            return True
        seen = bytearray(self.num_nodes)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for v, _w in self.neighbors(u):
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
            if self._directed:
                for v, _w in self.in_neighbors(u):
                    if not seen[v]:
                        seen[v] = 1
                        count += 1
                        stack.append(v)
        return count == self.num_nodes

    def connected_components(self) -> list[list[int]]:
        """Weakly connected components, each a sorted node list."""
        seen = bytearray(self.num_nodes)
        components: list[list[int]] = []
        for start in range(self.num_nodes):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for v, _w in self.neighbors(u):
                    if not seen[v]:
                        seen[v] = 1
                        comp.append(v)
                        stack.append(v)
                if self._directed:
                    for v, _w in self.in_neighbors(u):
                        if not seen[v]:
                            seen[v] = 1
                            comp.append(v)
                            stack.append(v)
            comp.sort()
            components.append(comp)
        return components

    def with_node_keywords(self, node: int, keywords: Iterable[str]) -> "RoadNetwork":
        """A derived network where ``node`` carries ``keywords``.

        The CSR adjacency and positions are shared (tuples are
        immutable), so this is O(num_nodes) and safe — the basis of the
        incremental keyword maintenance in
        :mod:`repro.core.maintenance`.  Only object nodes may carry
        keywords (mirrors the builder's rule).
        """
        self._check_node(node)
        kws = keyword_set(keywords)
        if kws and self._kinds[node] is not NodeKind.OBJECT:
            raise GraphError("junction nodes cannot carry keywords")
        clone = object.__new__(RoadNetwork)
        for slot in RoadNetwork.__slots__:
            object.__setattr__(clone, slot, getattr(self, slot))
        new_keywords = list(self._keywords)
        new_keywords[node] = kws
        object.__setattr__(clone, "_keywords", tuple(new_keywords))
        return clone

    def with_edge_weight(self, u: int, v: int, weight: float) -> "RoadNetwork":
        """A derived network where edge ``u -> v`` weighs ``weight``.

        Like :meth:`with_node_keywords` this is copy-on-write: only the
        weight tuples are re-materialised, every other slot is shared.
        For undirected networks both CSR rows (``u -> v`` and ``v -> u``)
        are updated; for directed networks the forward *and* reverse CSR
        entries of the single arc are updated.  This is the structural
        half of the online-update model in :mod:`repro.live` — the graph
        topology never changes, only costs do.
        """
        self._check_node(u)
        self._check_node(v)
        if not (weight > 0) or math.isinf(weight):
            raise GraphError(f"edge weight must be positive and finite, got {weight}")

        def _patched(
            offsets: tuple[int, ...],
            neighbors: tuple[int, ...],
            weights: tuple[float, ...],
            a: int,
            b: int,
        ) -> tuple[float, ...] | None:
            lo, hi = offsets[a], offsets[a + 1]
            hits = [i for i in range(lo, hi) if neighbors[i] == b]
            if not hits:
                return None
            patched = list(weights)
            for i in hits:
                patched[i] = weight
            return tuple(patched)

        forward = _patched(self._offsets, self._neighbors, self._weights, u, v)
        if forward is None:
            raise GraphError(f"no edge between {u} and {v}")

        clone = object.__new__(RoadNetwork)
        for slot in RoadNetwork.__slots__:
            object.__setattr__(clone, slot, getattr(self, slot))
        if self._directed:
            object.__setattr__(clone, "_weights", forward)
            reverse = _patched(self._roffsets, self._rneighbors, self._rweights, v, u)
            if reverse is None:  # pragma: no cover - builder keeps CSRs in sync
                raise GraphError(f"reverse CSR is missing arc {u} -> {v}")
            object.__setattr__(clone, "_rweights", reverse)
        else:
            both = _patched(self._offsets, self._neighbors, forward, v, u)
            if both is None:  # pragma: no cover - undirected edges are symmetric
                raise GraphError(f"undirected edge {u} - {v} has no reverse row")
            object.__setattr__(clone, "_weights", both)
            # Undirected networks alias the reverse CSR to the forward one.
            object.__setattr__(clone, "_rweights", both)
        total = sum(clone._weights)
        arc_count = len(clone._weights)
        object.__setattr__(
            clone, "_avg_edge_weight", total / arc_count if arc_count else 0.0
        )
        return clone

    def keyword_frequencies(self) -> dict[str, int]:
        """Map each keyword to the number of nodes carrying it."""
        freq: dict[str, int] = {}
        for kws in self._keywords:
            for kw in kws:
                freq[kw] = freq.get(kw, 0) + 1
        return freq
