"""Integrity validation of an NPD-index against its fragment.

Index files live on disk and outlive code versions; a worker that loads
a stale or foreign ``IND(P)`` must be able to notice before serving
wrong answers.  :func:`validate_index` checks the structural rules that
hold for every correctly built index:

* identity: fragment ids, directedness, ``maxR`` bounds on every
  recorded distance;
* Rule 1 structure: shortcut endpoints are members (and, beyond single
  edges, portals), weights beat any coexisting original edge;
* Rule 2 structure: DL values reference portals of this fragment,
  sorted by distance; node entries respect the declared policy;
* optional *spot checks*: a sample of recorded distances is re-derived
  from the network with bounded searches and compared exactly.

Structural checks need only the worker's own state (fragment + index);
spot checks need the global network, so they run at build/admin time.
"""

from __future__ import annotations

import math
import random

from repro.core.fragment import Fragment
from repro.core.npd import DLNodePolicy, NPDIndex
from repro.exceptions import IndexBuildError
from repro.graph.road_network import RoadNetwork
from repro.search.dijkstra import shortest_path_distances

__all__ = ["validate_index"]


def _fail(message: str) -> None:
    raise IndexBuildError(f"index validation failed: {message}")


def _validate_structure(fragment: Fragment, index: NPDIndex) -> None:
    if fragment.fragment_id != index.fragment_id:
        _fail(
            f"index is for fragment {index.fragment_id}, "
            f"paired with fragment {fragment.fragment_id}"
        )
    if fragment.directed != index.directed:
        _fail("fragment and index disagree on directedness")

    max_radius = index.max_radius
    for (u, v), w in index.shortcuts.items():
        if u not in fragment.members or v not in fragment.members:
            _fail(f"shortcut {(u, v)} leaves the fragment")
        if u == v:
            _fail(f"self-loop shortcut on node {u}")
        if not (0.0 < w <= max_radius):
            _fail(f"shortcut {(u, v)} weight {w} violates (0, maxR]")
        if u not in fragment.portals or v not in fragment.portals:
            _fail(f"shortcut {(u, v)} endpoint is not a portal")

    for family, entries in (
        ("keyword", index.keyword_entries.items()),
        ("node", index.node_entries.items()),
    ):
        for key, (portals, distances) in entries:
            if list(distances) != sorted(distances):
                _fail(f"{family} entry {key!r} is not distance-sorted")
            for portal, distance in zip(portals, distances):
                if portal not in fragment.portals:
                    _fail(f"{family} entry {key!r} references non-portal {portal}")
                if not (0.0 <= distance <= max_radius):
                    _fail(f"{family} entry {key!r} distance {distance} violates [0, maxR]")

    if index.node_policy is DLNodePolicy.NONE and index.node_entries:
        _fail("node entries present despite DLNodePolicy.NONE")
    for node in index.node_entries:
        if node in fragment.members:
            _fail(f"node entry {node} is a member of its own fragment")


def _validate_spot_checks(
    network: RoadNetwork,
    fragment: Fragment,
    index: NPDIndex,
    samples: int,
    rng: random.Random,
) -> None:
    adjacency = network.in_neighbors if network.directed else network.neighbors

    shortcut_items = list(index.shortcuts.items())
    rng.shuffle(shortcut_items)
    for (u, v), w in shortcut_items[:samples]:
        # Recorded weight must equal the true forward u -> v distance.
        dist = shortest_path_distances(adjacency, [v], bound=w * (1 + 1e-9))
        true = dist.get(u, math.inf)
        if not math.isclose(true, w, rel_tol=1e-9, abs_tol=1e-9):
            _fail(f"shortcut {(u, v)} records {w}, network says {true}")

    node_items = list(index.node_entries.items())
    rng.shuffle(node_items)
    for node, (portals, distances) in node_items[:samples]:
        if not portals:
            continue
        portal, recorded = portals[0], distances[0]
        dist = shortest_path_distances(adjacency, [portal], bound=recorded * (1 + 1e-9))
        true = dist.get(node, math.inf)
        if not math.isclose(true, recorded, rel_tol=1e-9, abs_tol=1e-9):
            _fail(f"node entry {node} -> portal {portal} records {recorded}, network says {true}")


def validate_index(
    fragment: Fragment,
    index: NPDIndex,
    *,
    network: RoadNetwork | None = None,
    spot_check_samples: int = 8,
    seed: int = 0,
) -> None:
    """Validate ``index`` against ``fragment`` (and optionally the network).

    Raises :class:`IndexBuildError` on the first violation; returns
    ``None`` when everything checks out.  Pass ``network`` to enable the
    distance spot checks.
    """
    _validate_structure(fragment, index)
    if network is not None and spot_check_samples > 0:
        _validate_spot_checks(
            network, fragment, index, spot_check_samples, random.Random(seed)
        )
