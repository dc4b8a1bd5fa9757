"""Shortest-path substrate: heaps and Dijkstra variants.

Everything in the system that touches distances — NPD-index construction
(paper Alg. 1), keyword-coverage evaluation (paper Alg. 2), the
centralized baseline and the ground-truth oracles used in tests — runs on
the primitives in this subpackage.
"""

from repro.search.heap import IndexedBinaryHeap
from repro.search.dijkstra import (
    DijkstraRun,
    shortest_path_distances,
    shortest_paths_with_predecessors,
    distance_between,
    reconstruct_path,
)
from repro.search.dense import DenseSearch

__all__ = [
    "DenseSearch",
    "IndexedBinaryHeap",
    "DijkstraRun",
    "shortest_path_distances",
    "shortest_paths_with_predecessors",
    "distance_between",
    "reconstruct_path",
]
