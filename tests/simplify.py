"""Road-network simplification: degree-2 chain contraction (a test-side transform).

Nothing in the library simplifies a network; the tests use contracted
networks (chains folded into summed-weight edges, parallel edges kept
at their minimum) as engine inputs that the random generators do not
produce.

OSM-style road data represents geometry, not topology: long roads are
chains of degree-2 shape nodes.  Contracting those chains — replacing
``a - v - b`` by ``a - b`` with the summed weight whenever ``v`` is a
keyword-free degree-2 junction — shrinks the graph drastically while
preserving every shortest-path distance *between the retained nodes*,
which is all the spatial-keyword machinery ever measures (objects and
real intersections are never contracted).

The contraction is a worklist algorithm: removing a node can create a
parallel edge (we keep the shorter one; the longer is never on a
shortest path) which can in turn lower a neighbour's degree and make it
eligible.  Isolated all-eligible cycles retain their final two nodes
naturally because a simple graph cannot hold the would-be self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphError
from repro.graph.build import RoadNetworkBuilder
from repro.graph.road_network import NodeKind, RoadNetwork

__all__ = ["SimplifiedNetwork", "simplify_network"]


@dataclass(frozen=True)
class SimplifiedNetwork:
    """Result of :func:`simplify_network`.

    Attributes
    ----------
    network:
        The contracted road network.
    node_mapping:
        ``{old_id: new_id}`` for every retained node; contracted nodes
        are absent.
    removed_count:
        How many shape nodes were contracted away.
    """

    network: RoadNetwork
    node_mapping: dict[int, int]
    removed_count: int

    def new_id(self, old_id: int) -> int:
        """New id of a retained node; raises ``KeyError`` if contracted."""
        return self.node_mapping[old_id]


def _eligible(network: RoadNetwork, adjacency: dict[int, dict[int, float]], node: int) -> bool:
    return (
        network.kind(node) is NodeKind.JUNCTION
        and not network.keywords(node)
        and len(adjacency[node]) == 2
    )


def simplify_network(
    network: RoadNetwork,
    *,
    protected: frozenset[int] = frozenset(),
) -> SimplifiedNetwork:
    """Contract keyword-free degree-2 junctions out of ``network``.

    ``protected`` nodes are never contracted (e.g. nodes an application
    must keep addressable).  Directed networks are rejected — one-way
    chain contraction needs flow-aware rules this library does not need.

    Shortest-path distances between all retained nodes are preserved
    exactly (property-tested against the oracle).
    """
    if network.directed:
        raise GraphError("simplify_network supports undirected networks only")

    adjacency: dict[int, dict[int, float]] = {
        node: dict(network.neighbors(node)) for node in network.nodes()
    }
    removed: set[int] = set()
    worklist = [
        node
        for node in network.nodes()
        if node not in protected and _eligible(network, adjacency, node)
    ]

    while worklist:
        v = worklist.pop()
        if v in removed or v in protected:
            continue
        if not _eligible(network, adjacency, v):
            continue
        (a, wa), (b, wb) = adjacency[v].items()
        if a == b:  # two parallel arcs cannot exist in a simple graph
            continue  # pragma: no cover - defensive
        through = wa + wb
        existing = adjacency[a].get(b)
        if existing is None or through < existing:
            adjacency[a][b] = through
            adjacency[b][a] = through
        # Detach v entirely.
        del adjacency[a][v]
        del adjacency[b][v]
        adjacency[v].clear()
        removed.add(v)
        # a/b degrees may have dropped (if the parallel edge collapsed),
        # possibly making them eligible now.
        for neighbor in (a, b):
            if neighbor not in protected and _eligible(network, adjacency, neighbor):
                worklist.append(neighbor)

    builder = RoadNetworkBuilder()
    node_mapping: dict[int, int] = {}
    for node in network.nodes():
        if node in removed:
            continue
        position = network.position(node) if network.has_positions else None
        node_mapping[node] = builder.add_node(
            network.kind(node), network.keywords(node), position
        )
    for old_u, new_u in node_mapping.items():
        for old_v, weight in adjacency[old_u].items():
            if old_u < old_v:
                builder.add_edge(new_u, node_mapping[old_v], weight)

    return SimplifiedNetwork(
        network=builder.build(),
        node_mapping=node_mapping,
        removed_count=len(removed),
    )
