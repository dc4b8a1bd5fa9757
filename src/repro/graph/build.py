"""Incremental construction of :class:`~repro.graph.road_network.RoadNetwork`.

The builder accumulates nodes and edges with validation, then lowers them
into the immutable CSR representation.  It also implements the paper's
preprocessing step (§6, *Datasets*): "we take each object as a node and
let it connect to its nearest network node" — see :func:`attach_objects`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import EdgeError, GraphError, NodeNotFoundError
from repro.graph.road_network import NodeKind, RoadNetwork, keyword_set

__all__ = ["RoadNetworkBuilder", "ObjectSpec", "attach_objects"]


@dataclass(frozen=True)
class ObjectSpec:
    """An object (point of interest) to be attached to a road network.

    Attributes
    ----------
    position:
        ``(x, y)`` location of the object.
    keywords:
        Keywords describing the object (e.g. ``{"restaurant", "seafood"}``).
    """

    position: tuple[float, float]
    keywords: frozenset[str]

    def __init__(self, position: tuple[float, float], keywords: Iterable[str]) -> None:
        object.__setattr__(self, "position", (float(position[0]), float(position[1])))
        object.__setattr__(self, "keywords", frozenset(keywords))


class RoadNetworkBuilder:
    """Mutable accumulator that produces an immutable :class:`RoadNetwork`.

    Example
    -------
    >>> b = RoadNetworkBuilder()
    >>> a = b.add_object(keywords={"school"})
    >>> e = b.add_junction()
    >>> _ = b.add_edge(a, e, 2.0)
    >>> net = b.build()
    >>> net.keywords(a)
    frozenset({'school'})
    """

    def __init__(self, directed: bool = False) -> None:
        self._directed = directed
        self._kinds: list[NodeKind] = []
        self._keywords: list[frozenset[str]] = []
        self._positions: list[tuple[float, float] | None] = []
        self._edges: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._kinds)

    @property
    def num_edges(self) -> int:
        """Number of edges added so far."""
        return len(self._edges)

    @property
    def directed(self) -> bool:
        """Whether the network under construction is directed."""
        return self._directed

    def add_node(
        self,
        kind: NodeKind,
        keywords: Iterable[str] = (),
        position: tuple[float, float] | None = None,
    ) -> int:
        """Add a node and return its id.

        Junction nodes must not carry keywords (paper Fig. 1: junctions
        are keyword-free); attach keywords to object nodes.
        """
        kws = keyword_set(keywords)
        if kind is NodeKind.JUNCTION and kws:
            raise GraphError("junction nodes cannot carry keywords")
        node = len(self._kinds)
        self._kinds.append(kind)
        self._keywords.append(kws)
        self._positions.append(
            (float(position[0]), float(position[1])) if position is not None else None
        )
        return node

    def add_junction(self, position: tuple[float, float] | None = None) -> int:
        """Add a keyword-free road-junction node."""
        return self.add_node(NodeKind.JUNCTION, (), position)

    def add_object(
        self,
        keywords: Iterable[str] = (),
        position: tuple[float, float] | None = None,
    ) -> int:
        """Add an object (point-of-interest) node."""
        return self.add_node(NodeKind.OBJECT, keywords, position)

    def set_keywords(self, node: int, keywords: Iterable[str]) -> None:
        """Replace the keyword set of an existing object node."""
        if not (0 <= node < len(self._kinds)):
            raise NodeNotFoundError(node)
        if self._kinds[node] is NodeKind.JUNCTION:
            raise GraphError("junction nodes cannot carry keywords")
        self._keywords[node] = keyword_set(keywords)

    def position(self, node: int) -> tuple[float, float] | None:
        """Position of an already-added node (``None`` if unset)."""
        if not (0 <= node < len(self._kinds)):
            raise NodeNotFoundError(node)
        return self._positions[node]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float, *, keep_min: bool = False) -> tuple[int, int]:
        """Add edge ``(u, v, weight)``; returns the canonical key.

        Weights must be strictly positive (the index construction and the
        query-time Dijkstra both assume a metric with positive edge
        lengths).  Duplicate edges raise :class:`EdgeError` unless
        ``keep_min`` is set, in which case the smaller weight wins.
        """
        n = len(self._kinds)
        if not (0 <= u < n):
            raise NodeNotFoundError(u)
        if not (0 <= v < n):
            raise NodeNotFoundError(v)
        if u == v:
            raise EdgeError(f"self-loop on node {u} is not allowed")
        w = float(weight)
        if not math.isfinite(w) or w <= 0.0:
            raise EdgeError(f"edge ({u}, {v}) has non-positive or non-finite weight {weight!r}")
        key = (u, v) if self._directed or u < v else (v, u)
        if key in self._edges:
            if not keep_min:
                raise EdgeError(f"duplicate edge {key}; pass keep_min=True to merge")
            self._edges[key] = min(self._edges[key], w)
        else:
            self._edges[key] = w
        return key

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` has been added."""
        key = (u, v) if self._directed or u < v else (v, u)
        return key in self._edges

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def build(self) -> RoadNetwork:
        """Lower the accumulated nodes and edges into a :class:`RoadNetwork`."""
        n = len(self._kinds)
        out_deg = [0] * n
        in_deg = [0] * n
        for (u, v) in self._edges:
            out_deg[u] += 1
            in_deg[v] += 1
            if not self._directed:
                out_deg[v] += 1

        offsets = [0] * (n + 1)
        for i in range(n):
            offsets[i + 1] = offsets[i] + out_deg[i]
        arc_count = offsets[-1]
        neighbors = [0] * arc_count
        weights = [0.0] * arc_count
        cursor = list(offsets[:n])
        for (u, v), w in self._edges.items():
            neighbors[cursor[u]] = v
            weights[cursor[u]] = w
            cursor[u] += 1
            if not self._directed:
                neighbors[cursor[v]] = u
                weights[cursor[v]] = w
                cursor[v] += 1

        reverse = None
        if self._directed:
            roffsets = [0] * (n + 1)
            for i in range(n):
                roffsets[i + 1] = roffsets[i] + in_deg[i]
            rneighbors = [0] * roffsets[-1]
            rweights = [0.0] * roffsets[-1]
            rcursor = list(roffsets[:n])
            for (u, v), w in self._edges.items():
                rneighbors[rcursor[v]] = u
                rweights[rcursor[v]] = w
                rcursor[v] += 1
            reverse = (roffsets, rneighbors, rweights)

        positions: list[tuple[float, float]] | None
        if any(p is not None for p in self._positions):
            if any(p is None for p in self._positions):
                raise GraphError(
                    "either all nodes must have positions or none of them may"
                )
            positions = [p for p in self._positions if p is not None]
        else:
            positions = None

        return RoadNetwork(
            offsets,
            neighbors,
            weights,
            self._kinds,
            self._keywords,
            positions,
            directed=self._directed,
            reverse=reverse,
        )


def _euclidean(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class _GridIndex:
    """A uniform-grid spatial hash over positioned builder nodes.

    Used by :func:`attach_objects` to find the nearest road node of each
    object in roughly constant time instead of a linear scan.
    """

    def __init__(self, points: Sequence[tuple[int, tuple[float, float]]], cell: float) -> None:
        if cell <= 0:
            raise GraphError("grid cell size must be positive")
        self._cell = cell
        self._cells: dict[tuple[int, int], list[tuple[int, tuple[float, float]]]] = {}
        for node, pos in points:
            self._cells.setdefault(self._key(pos), []).append((node, pos))

    def _key(self, pos: tuple[float, float]) -> tuple[int, int]:
        return (int(math.floor(pos[0] / self._cell)), int(math.floor(pos[1] / self._cell)))

    def _scan_ring(
        self,
        pos: tuple[float, float],
        cx: int,
        cy: int,
        ring: int,
        best: tuple[int, float],
    ) -> tuple[int, float]:
        """Scan the square ring at Chebyshev distance ``ring`` around the cell."""
        best_node, best_dist = best
        for dx in range(-ring, ring + 1):
            for dy in range(-ring, ring + 1):
                if max(abs(dx), abs(dy)) != ring:
                    continue
                bucket = self._cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for node, p in bucket:
                    d = _euclidean(pos, p)
                    if d < best_dist:
                        best_dist = d
                        best_node = node
        return best_node, best_dist

    def nearest(self, pos: tuple[float, float]) -> tuple[int, float]:
        """Return ``(node, distance)`` of the nearest indexed point.

        Rings are scanned outward.  Once a candidate is known at distance
        ``d``, every point in an unscanned ring ``R`` lies at Euclidean
        distance at least ``(R - 1) * cell`` from ``pos``, so scanning
        stops as soon as ``(R - 1) * cell > d``.
        """
        cx, cy = self._key(pos)
        best: tuple[int, float] = (-1, math.inf)
        ring = 0
        while True:
            best = self._scan_ring(pos, cx, cy, ring, best)
            ring += 1
            if best[0] >= 0 and (ring - 1) * self._cell > best[1]:
                return best
            if ring > 100_000:  # pragma: no cover - defensive guard
                raise GraphError("grid search failed to find any node")


def attach_objects(
    builder: RoadNetworkBuilder,
    objects: Iterable[ObjectSpec],
    *,
    min_edge_weight: float = 1e-9,
) -> list[int]:
    """Attach objects to a road network under construction (paper §6).

    Each object becomes an :class:`~repro.graph.road_network.NodeKind.OBJECT`
    node connected to its nearest already-present positioned node by an
    edge whose weight is their Euclidean distance (floored at
    ``min_edge_weight`` so co-located objects still get a valid positive
    weight).

    Returns the list of newly created object node ids, in input order.
    """
    road_points = [
        (node, pos)
        for node in range(builder.num_nodes)
        if (pos := builder.position(node)) is not None
    ]
    if not road_points:
        raise GraphError("attach_objects requires positioned road nodes")

    xs = [p[1][0] for p in road_points]
    ys = [p[1][1] for p in road_points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    cell = span / max(1.0, math.sqrt(len(road_points)))
    grid = _GridIndex(road_points, cell)

    created: list[int] = []
    for spec in objects:
        nearest, dist = grid.nearest(spec.position)
        node = builder.add_object(spec.keywords, spec.position)
        builder.add_edge(node, nearest, max(dist, min_edge_weight))
        created.append(node)
    return created
