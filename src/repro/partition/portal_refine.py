"""Portal-minimising partition refinement.

Classic partitioners minimise *edge cut*, but the NPD-index pays for
*portal nodes*: every portal launches an Algorithm-1 backward search and
every DL list is portal-keyed (§3.3–§3.4, Theorem 5's α/β).  Edge cut
and portal count correlate but are not the same objective — moving one
node can remove several cut edges' worth of portals at once, or cut more
edges while exposing fewer nodes.

:func:`refine_portals` post-processes any partition with a greedy pass:
boundary nodes are moved to a neighbouring fragment whenever the move
strictly reduces the total portal count without violating the balance
constraint.  The pass repeats until a sweep makes no move (or the sweep
limit is hit).  It never invalidates partition validity — moves only
reassign nodes.
"""

from __future__ import annotations

from repro.exceptions import PartitionError
from repro.graph.road_network import RoadNetwork
from repro.partition.base import Partition

__all__ = ["refine_portals"]


def _is_portal(network: RoadNetwork, assignment: list[int], node: int) -> bool:
    frag = assignment[node]
    return any(assignment[v] != frag for v, _w in network.neighbors(node)) or (
        network.directed
        and any(assignment[v] != frag for v, _w in network.in_neighbors(node))
    )


def _neighbors_both(network: RoadNetwork, node: int):
    seen = set()
    for v, _w in network.neighbors(node):
        if v not in seen:
            seen.add(v)
            yield v
    if network.directed:
        for v, _w in network.in_neighbors(node):
            if v not in seen:
                seen.add(v)
                yield v


def _portal_delta(
    network: RoadNetwork, assignment: list[int], node: int, target: int
) -> int:
    """Change in total portal count if ``node`` moves to ``target``.

    Only ``node`` and its neighbours can change portal status, so the
    delta is evaluated locally.
    """
    affected = [node] + list(_neighbors_both(network, node))
    before = sum(1 for n in affected if _is_portal(network, assignment, n))
    original = assignment[node]
    assignment[node] = target
    after = sum(1 for n in affected if _is_portal(network, assignment, n))
    assignment[node] = original
    return after - before


def refine_portals(
    network: RoadNetwork,
    partition: Partition,
    *,
    balance_tolerance: float = 0.1,
    max_sweeps: int = 4,
) -> Partition:
    """Greedily move boundary nodes to reduce the total portal count.

    Fragment sizes are kept within ``(1 + balance_tolerance)`` of the
    ideal and never drop below one node.  Returns a new
    :class:`Partition`; the input is not modified.
    """
    if balance_tolerance < 0:
        raise PartitionError("balance_tolerance must be non-negative")
    assignment = list(partition.assignment)
    k = partition.num_fragments
    sizes = partition.sizes()
    max_size = (1.0 + balance_tolerance) * network.num_nodes / k

    for _sweep in range(max_sweeps):
        moved = False
        for node in range(network.num_nodes):
            frag = assignment[node]
            if not _is_portal(network, assignment, node):
                continue
            if sizes[frag] <= 1:
                continue
            candidates = {
                assignment[v]
                for v in _neighbors_both(network, node)
                if assignment[v] != frag
            }
            best_target = -1
            best_delta = 0
            for target in candidates:
                if sizes[target] + 1 > max_size:
                    continue
                delta = _portal_delta(network, assignment, node, target)
                if delta < best_delta:
                    best_delta = delta
                    best_target = target
            if best_target >= 0:
                assignment[node] = best_target
                sizes[frag] -= 1
                sizes[best_target] += 1
                moved = True
        if not moved:
            break
    return Partition.from_assignment(assignment, k)
