"""Shared test utilities: random network factories and oracles.

The factory builds small connected keyword-labelled road networks from a
seed (spanning tree + extra edges), which both plain tests and
hypothesis properties use (hypothesis draws the seed/size knobs).  The
oracle functions compute ground-truth distances/coverages with networkx
or brute-force Dijkstra, independently of the library's own search code.
"""

from __future__ import annotations

import math
import random

import networkx as nx

from repro.core.queries import CoverageTerm, KeywordSource, NodeSource
from repro.graph.build import RoadNetworkBuilder
from repro.graph.road_network import RoadNetwork


def make_random_network(
    seed: int,
    num_junctions: int = 20,
    num_objects: int = 10,
    vocabulary: int = 6,
    extra_edge_prob: float = 0.15,
    directed: bool = False,
    max_keywords_per_object: int = 3,
) -> RoadNetwork:
    """A random connected keyword-labelled network, deterministic per seed."""
    rng = random.Random(seed)
    total = num_junctions + num_objects
    builder = RoadNetworkBuilder(directed=directed)
    object_slots = set(rng.sample(range(total), num_objects)) if num_objects else set()
    vocab = [f"w{i}" for i in range(vocabulary)]
    for node in range(total):
        pos = (rng.uniform(0, 10), rng.uniform(0, 10))
        if node in object_slots:
            count = rng.randint(1, max_keywords_per_object)
            builder.add_object(rng.sample(vocab, min(count, len(vocab))), pos)
        else:
            builder.add_junction(pos)

    # Random spanning tree keeps it connected.
    order = list(range(total))
    rng.shuffle(order)
    for i in range(1, total):
        u, v = order[i], order[rng.randrange(i)]
        w = rng.uniform(0.5, 3.0)
        builder.add_edge(u, v, w, keep_min=True)
        if directed:
            builder.add_edge(v, u, w, keep_min=True)
    for u in range(total):
        for v in range(u + 1, total):
            if rng.random() < extra_edge_prob and not builder.has_edge(u, v):
                builder.add_edge(u, v, rng.uniform(0.5, 4.0))
                if directed and rng.random() < 0.8:
                    builder.add_edge(v, u, rng.uniform(0.5, 4.0))
    return builder.build()


def make_tied_grid(
    seed: int, rows: int = 6, cols: int = 5, directed: bool = False, vocabulary: int = 4
) -> RoadNetwork:
    """A ``rows × cols`` grid with weights in {1, 2}: shortest-path ties everywhere.

    About a third of the cells are objects with one or two keywords.
    Directed grids carry both arcs of most streets (independent weights)
    and a few one-way ones, so forward and backward distances differ.
    """
    rng = random.Random(seed)
    builder = RoadNetworkBuilder(directed=directed)
    vocab = [f"w{i}" for i in range(vocabulary)]
    for cell in range(rows * cols):
        pos = (float(cell % cols), float(cell // cols))
        if rng.random() < 0.35:
            builder.add_object(rng.sample(vocab, rng.randint(1, 2)), pos)
        else:
            builder.add_junction(pos)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for v in ([u + 1] if c + 1 < cols else []) + ([u + cols] if r + 1 < rows else []):
                builder.add_edge(u, v, float(rng.randint(1, 2)))
                if directed and rng.random() < 0.85:
                    builder.add_edge(v, u, float(rng.randint(1, 2)))
    return builder.build()


def random_partition_assignment(seed: int, num_nodes: int, k: int) -> list[int]:
    """A random assignment guaranteed to leave no fragment empty."""
    rng = random.Random(seed)
    assignment = [rng.randrange(k) for _ in range(num_nodes)]
    nodes = rng.sample(range(num_nodes), k)
    for frag, node in enumerate(nodes):
        assignment[node] = frag
    return assignment


def to_networkx(network: RoadNetwork) -> "nx.Graph | nx.DiGraph":
    """Convert to a networkx graph for oracle computations."""
    graph = nx.DiGraph() if network.directed else nx.Graph()
    graph.add_nodes_from(network.nodes())
    for u, v, w in network.edges():
        graph.add_edge(u, v, weight=w)
    return graph


def oracle_distances(
    network: RoadNetwork, sources: list[int], bound: float = math.inf
) -> dict[int, float]:
    """Multi-source shortest distances via networkx (forward direction)."""
    graph = to_networkx(network)
    result: dict[int, float] = {}
    for source in sources:
        lengths = nx.single_source_dijkstra_path_length(graph, source, weight="weight")
        for node, dist in lengths.items():
            if dist <= bound and dist < result.get(node, math.inf):
                result[node] = dist
    return result


def oracle_coverage(network: RoadNetwork, term: CoverageTerm) -> set[int]:
    """Ground-truth coverage of one term (forward-direction convention)."""
    source = term.source
    if isinstance(source, KeywordSource):
        seeds = [n for n in network.nodes() if source.keyword in network.keywords(n)]
    else:
        assert isinstance(source, NodeSource)
        seeds = [source.node]
    if not seeds:
        return set()
    return set(oracle_distances(network, seeds, term.radius))
