"""NPD-index construction (paper Algorithm 1, §4.1).

One bounded *backward* search per portal of the fragment, on the dense
state of :mod:`repro.search.dense`: a ``dist`` list, a settle order and
one *dirty* flag per node — set when a member of ``P`` lies strictly
between the node and the portal, which is the paper's ``visitedParts``
reduced to the only membership that matters (membership in ``P``):

* a settled member that is not dirty and has no original edge of that
  length to the portal yields an ``SC`` shortcut (Rule 1);
* a settled outside node that is not dirty yields ``DL`` records
  (Rule 2): per-keyword minima (the §3.7 virtual-keyword-node form) and,
  per :class:`DLNodePolicy`, a concrete node entry.

The flag is written when a label is relaxed and combined when a label
ties, so what is recorded under shortest-path ties is a property of the
graph, not of the order nodes settle in: by default a pair is recorded
when *some* shortest path qualifies (flags AND-ed), under
``strict_tie_rules`` when *every* one does (OR-ed; Rules 3/4).  The
default is a superset of the minimal sets, but every recorded value is
an exact path length and the query-time search takes minima, so
correctness is unaffected (§5.3).  :mod:`repro.core.maintenance` runs
the same rule forward, so a maintained index equals a rebuilt one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.exceptions import IndexBuildError
from repro.core.fragment import Fragment
from repro.core.npd import DLNodePolicy, NPDIndex
from repro.graph.road_network import RoadNetwork
from repro.search.dense import DenseSearch

__all__ = ["NPDBuildConfig", "BuildStats", "build_npd_index", "build_all_indexes"]


@dataclass(frozen=True)
class NPDBuildConfig:
    """Parameters of NPD-index construction.

    Exactly one of ``max_radius`` (absolute) or ``lambda_factor``
    (``maxR = λ·ē``, the paper's Table-2 parameterisation with default
    λ=40) should be set; ``lambda_factor`` wins if both are given.
    ``math.inf`` (the default ``max_radius`` when both are ``None``)
    builds the untruncated index of §5.5.

    ``strict_tie_rules`` selects the §5.3 variant: under shortest-path
    ties the default builder records a pair whenever *some* shortest
    path qualifies (a safe superset, see the module docstring); the
    strict mode implements Rules 3/4 literally — record only when
    *every* shortest path avoids interior members — yielding the
    minimal index at the cost of tracking tie cleanliness.
    """

    max_radius: float | None = None
    lambda_factor: float | None = None
    node_policy: DLNodePolicy = DLNodePolicy.OBJECTS
    strict_tie_rules: bool = False

    def resolve_max_radius(self, network: RoadNetwork) -> float:
        """The absolute ``maxR`` for ``network``."""
        if self.lambda_factor is not None:
            if self.lambda_factor <= 0:
                raise IndexBuildError("lambda_factor must be positive")
            return self.lambda_factor * network.average_edge_weight
        if self.max_radius is not None:
            if self.max_radius < 0:
                raise IndexBuildError("max_radius must be non-negative")
            return self.max_radius
        return math.inf


@dataclass
class BuildStats:
    """Construction-cost accounting for one fragment (Table 3 / EXP 2).

    ``settled_nodes`` sums the nodes within ``maxR`` of each portal;
    ``relaxed_edges`` the arcs scanned, i.e. the degrees of those nodes.
    """

    fragment_id: int
    num_portals: int
    settled_nodes: int = 0
    relaxed_edges: int = 0
    wall_seconds: float = 0.0


def build_npd_index(
    network: RoadNetwork,
    fragment: Fragment,
    config: NPDBuildConfig | None = None,
    search: DenseSearch | None = None,
) -> tuple[NPDIndex, BuildStats]:
    """Build ``IND(P)`` for one fragment (Algorithm 1).

    Returns the sealed index together with construction statistics.  The
    search touches the whole network (construction is an offline, global
    computation — §4.1) but the *output* concerns only ``fragment``,
    which is what makes construction fragment-parallel.  ``search`` is
    the network's *reverse* row view, for callers that build more than
    one fragment; it is derived here when omitted.
    """
    config = config or NPDBuildConfig()
    max_radius = config.resolve_max_radius(network)
    policy = config.node_policy
    index = NPDIndex(
        fragment_id=fragment.fragment_id,
        max_radius=max_radius,
        node_policy=policy,
        directed=network.directed,
    )
    stats = BuildStats(fragment_id=fragment.fragment_id, num_portals=fragment.num_portals)
    keyword_pairs: dict[str, list[tuple[int, float]]] = {}
    node_pairs: dict[int, list[tuple[int, float]]] = {}

    started = time.perf_counter()
    # Backward search: distances are d(p -> portal), so the rows are the
    # in-arcs (on undirected graphs the forward CSR is its own reverse).
    search = search or DenseSearch(network, reverse=True)
    rows = search.rows
    nodes = network.nodes()
    member = bytes(node in fragment.members for node in nodes)
    keywords = [network.keywords(node) for node in nodes]
    has_entry = bytes(
        policy is DLNodePolicy.ALL or (policy is DLNodePolicy.OBJECTS and network.is_object(node))
        for node in nodes
    )
    # Rules 1-2 concern members and entry-bearing outsiders only; the
    # other settled nodes (most of them: outside junctions) are skipped in C.
    relevant = bytes(map(max, member, map(bool, keywords), has_entry))
    for portal in sorted(fragment.portals):
        order, dist, dirty = search.run((portal,), max_radius, member, config.strict_tie_rules)
        stats.settled_nodes += len(order)
        stats.relaxed_edges += sum(map(len, map(rows.__getitem__, order)))
        direct = dict(rows[portal])  # the arcs p -> portal of G
        nearest: dict[str, float] = {}
        for p in filter(relevant.__getitem__, order):
            if dirty[p]:
                continue
            d = dist[p]
            if member[p]:
                # Rule 1: member-to-portal shortcut.  Condition 2 excludes
                # the pair only when (p, portal, d(p, portal)) is an edge
                # of G *with that weight* — an original edge longer than
                # the shortest path does not make the shortcut redundant.
                if p != portal and direct.get(p, math.inf) > d * (1.0 + 1e-12):
                    index.add_shortcut(p, portal, d)
                continue
            # Rule 2: outside node some (every, if strict) shortest path
            # of which first touches P at this portal.  A bucket is not
            # swept in distance order, so the minimum is taken explicitly.
            for keyword in keywords[p]:
                if d < nearest.get(keyword, math.inf):
                    nearest[keyword] = d
            if has_entry[p]:
                node_pairs.setdefault(p, []).append((portal, d))
        for keyword, d in nearest.items():
            keyword_pairs.setdefault(keyword, []).append((portal, d))
    index.seal(keyword_pairs, node_pairs)
    stats.wall_seconds = time.perf_counter() - started
    return index, stats


def build_all_indexes(
    network: RoadNetwork,
    fragments: list[Fragment],
    config: NPDBuildConfig | None = None,
) -> tuple[list[NPDIndex], list[BuildStats]]:
    """Build the NPD-index of every fragment (serially, in fragment order).

    The per-fragment builds are independent — the paper runs one per
    machine; :mod:`repro.dist.parallel` offers a process-parallel
    driver — but this serial form is what the deterministic tests and
    single-process benchmarks use.
    """
    search = DenseSearch(network, reverse=True)
    built = [build_npd_index(network, fragment, config, search) for fragment in fragments]
    return [index for index, _stats in built], [stats for _index, stats in built]
