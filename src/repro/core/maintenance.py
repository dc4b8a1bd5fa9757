"""Incremental NPD-index maintenance for keyword and edge-cost updates.

The paper builds its index offline over a static network.  A deployed
system, however, sees object metadata churn constantly (a restaurant
closes, a shop gains a tag) and road costs drift (congestion, closures)
even while the *topology* stays put.  This module keeps the NPD-index
exact under exactly those classes of change:

* **adding** a keyword to an object — one bounded forward search from
  the object (the builder's loop, run forward) computes its Rule-2
  contributions to every fragment's DL, which are merged as minima;
* **removing** a keyword — the affected keyword's DL entries are
  recomputed from the remaining carriers' contributions (each one
  bounded search; documented O(|carriers|) cost);
* **edge-weight** changes — an impact analysis bounds which fragments'
  ``SC(P)``/``DL(P)`` entries could record a path through the changed
  edge (every recorded distance is ≤ ``maxR``, so only fragments with a
  node within ``maxR`` of the edge, on the old *or* new costs, qualify);
  those fragments fall back to a bounded rebuild — one Algorithm-1 run
  each;
* **structural** changes (new roads, new objects) route to an explicit
  per-fragment rebuild.

SC(P) never depends on keywords, so keyword maintenance touches only DL
— the reason it can be patch-incremental; edge costs feed every recorded
distance, which is why they invalidate-and-rebuild instead.

Every mutation bumps :attr:`NPDIndex.version`, and runtimes *bound* to
the maintainer (:meth:`KeywordMaintainer.bind`) are refreshed in place —
their compiled kernels and coverage caches are dropped, so queries after
an update never see pre-mutation packed seed lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable

from repro.core.builder import NPDBuildConfig, build_npd_index
from repro.core.coverage import FragmentRuntime
from repro.core.fragment import Fragment
from repro.core.npd import DLNodePolicy, NPDIndex, pack_value_list
from repro.exceptions import DisksError, GraphError
from repro.graph.road_network import RoadNetwork
from repro.partition.base import Partition
from repro.search.dense import DenseSearch
from repro.text.inverted import FragmentKeywordIndex

__all__ = ["node_dl_contributions", "edge_impact_fragments", "KeywordMaintainer"]


def node_dl_contributions(
    network: RoadNetwork,
    partition: Partition,
    source: int,
    max_radius: float,
    search: DenseSearch | None = None,
) -> dict[int, dict[int, float]]:
    """Rule-2 contributions of one source node to every fragment's DL.

    The forward dual of the builder's portal search: one bounded search
    from ``source`` whose per-node tag is the bitmask of the fragments
    that *every* shortest path visits strictly between the source and
    the node (the paper's ``visitedParts``, AND-ed on ties).  A settled
    node ``p`` contributes ``(p, d(source, p))`` to fragment ``part(p)``
    iff the source lies outside it and some shortest path enters it
    first at ``p`` — exactly when the builder, searching backward from
    ``p``, finds the source clean (Rule 2).

    ``search`` is the network's forward row view, derived when omitted.
    Returns ``{fragment_id: {portal: distance}}``.
    """
    assignment = partition.assignment
    bits = partition.fragment_bits
    home = bits[source]
    order, dist, visited = (search or DenseSearch(network)).run((source,), max_radius, bits)
    contributions: dict[int, dict[int, float]] = {}
    for p in order:
        bit = bits[p]
        if bit != home and not visited[p] & bit:
            contributions.setdefault(assignment[p], {})[p] = dist[p]
    return contributions


def edge_impact_fragments(
    old_network: RoadNetwork,
    new_network: RoadNetwork,
    partition: Partition,
    u: int,
    v: int,
    max_radius: float,
    old_search: DenseSearch | None = None,
    new_search: DenseSearch | None = None,
) -> set[int]:
    """Fragments whose index may record a path through edge ``u -> v``.

    Every distance an NPD-index records is at most ``maxR`` long, so a
    recorded path through the edge leaves at most ``maxR`` of suffix
    after traversing it: every node of the path — in particular the
    portal that keys the DL entry, or the shortcut endpoint — lies
    within ``maxR`` of the edge's head.  Sweeping a bounded forward
    Dijkstra from the edge endpoints on the *old* network catches
    entries whose recorded path used the old cost, and on the *new*
    network entries whose path becomes recorded under the new cost.
    The fragments of ``u`` and ``v`` themselves are always included
    (their local adjacency and Rule-1 shortcut validity change).  The
    two forward row views are derived when the caller holds none.

    With an untruncated index (``maxR = ∞``) this degrades to "every
    fragment", which is the honest answer — untruncated recorded paths
    can span the whole network.
    """
    assignment = partition.assignment
    sources = (v,) if old_network.directed else (u, v)
    affected = {assignment[u], assignment[v]}
    interior = bytes(len(assignment))  # reach only: no tag is read
    for network, search in ((old_network, old_search), (new_network, new_search)):
        order, _dist, _tag = (search or DenseSearch(network)).run(sources, max_radius, interior)
        affected.update(assignment[node] for node in order)
    return affected


@dataclass
class KeywordMaintainer:
    """Keeps (network, fragments, indexes) exact under online updates.

    Owns mutable references to the deployment state; after any update
    the properties expose the refreshed objects, from which a new
    :class:`~repro.core.engine.DisksEngine` (or raw runtimes) can be
    assembled.  All updates preserve the exactness invariants — the test
    suite checks every operation against a from-scratch rebuild.

    Live runtimes can be *bound* with :meth:`bind`: after every update
    each bound :class:`~repro.core.coverage.FragmentRuntime` is
    refreshed in place (fragment/index references swapped, compiled
    kernel and coverage cache dropped), so a bound runtime always
    answers on the post-update index.  Each public update method
    returns the sorted ids of the fragments it actually changed, which
    :mod:`repro.live.epochs` uses to ship minimal epoch deltas.

    ``search`` is the forward row view of the network's topology.
    Keyword edits share adjacency, so it stays valid until
    :meth:`set_edge_weight` replaces it; a caller that makes one
    maintainer per batch hands the previous one's view to the next.

    ``seed_keys`` records what keyword maintenance rewrote: per fragment,
    the keywords and DL-node keys whose seed lists differ from before.
    A fragment in ``rebuilt`` went through Algorithm 1 again, so every
    list of it may differ.  Together they are the scope of the epoch
    delta (:mod:`repro.live.epochs`): a keyword-only delta ships just
    those lists, a rebuilt fragment ships whole.
    """

    network: RoadNetwork
    partition: Partition
    fragments: list[Fragment]
    indexes: list[NPDIndex]
    search: DenseSearch | None = field(default=None, repr=False, compare=False)
    seed_keys: dict[int, set] = field(default_factory=dict, init=False, repr=False, compare=False)
    rebuilt: set[int] = field(default_factory=set, init=False, repr=False, compare=False)
    _bound: dict[int, list[FragmentRuntime]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.fragments) != len(self.indexes):
            raise DisksError("fragments and indexes must align")
        if self.partition.num_nodes != self.network.num_nodes:
            raise DisksError("partition does not fit the network")
        self.search = self.search or DenseSearch(self.network)

    @property
    def max_radius(self) -> float:
        """The deployment's ``maxR``."""
        return self.indexes[0].max_radius

    # ------------------------------------------------------------------
    # Runtime binding
    # ------------------------------------------------------------------
    def bind(self, runtime: FragmentRuntime) -> None:
        """Keep ``runtime`` synchronised with every future update."""
        fragment_id = runtime.fragment.fragment_id
        if not (0 <= fragment_id < len(self.fragments)):
            raise DisksError(f"no fragment {fragment_id} to bind to")
        self._bound.setdefault(fragment_id, []).append(runtime)

    def _refresh_bound(self, fragment_ids: Iterable[int]) -> None:
        for fragment_id in fragment_ids:
            for runtime in self._bound.get(fragment_id, ()):
                runtime.refresh(self.fragments[fragment_id], self.indexes[fragment_id])

    # ------------------------------------------------------------------
    # Keyword additions
    # ------------------------------------------------------------------
    def add_keyword(self, node: int, keyword: str) -> tuple[int, ...]:
        """Attach ``keyword`` to object ``node`` and patch every DL.

        Returns the sorted ids of the fragments whose state changed.
        """
        current = self.network.keywords(node)
        if keyword in current:
            return ()
        if not self.network.is_object(node):
            raise GraphError(f"node {node} is a junction; only objects carry keywords")
        self.network = self.network.with_node_keywords(node, current | {keyword})
        home = self.partition.fragment_of(node)
        self._refresh_fragment_keyword_index(home, keyword)
        changed = {home}

        contributions = node_dl_contributions(
            self.network, self.partition, node, self.max_radius, self.search
        )
        for fragment_id, portal_distances in contributions.items():
            if fragment_id == home:
                continue
            index = self.indexes[fragment_id]
            # A new list with the minima merged in: an older epoch may
            # still read ``before``.
            before = index.keyword_entries.get(keyword, ())
            merged = pack_value_list(chain(zip(*before), portal_distances.items()))
            touched = merged != before
            if touched:
                index.keyword_entries[keyword] = merged
                self._rewrote(fragment_id, keyword)
            if self._ensure_node_entry(index, node, portal_distances):
                self._rewrote(fragment_id, node)
                touched = True
            if touched:
                index.touch()
                changed.add(fragment_id)
        self._refresh_bound(changed)
        return tuple(sorted(changed))

    def _ensure_node_entry(
        self, index: NPDIndex, node: int, portal_distances: dict[int, float]
    ) -> bool:
        """Give a newly keyword-bearing object its DL node entry if due."""
        if index.node_policy is DLNodePolicy.NONE:
            return False
        if index.node_policy is DLNodePolicy.OBJECTS and not self.network.is_object(node):
            return False
        if node not in index.node_entries:
            index.node_entries[node] = pack_value_list(portal_distances.items())
            return True
        return False

    # ------------------------------------------------------------------
    # Keyword removals
    # ------------------------------------------------------------------
    def remove_keyword(self, node: int, keyword: str) -> tuple[int, ...]:
        """Detach ``keyword`` from ``node`` and recompute its DL entries.

        Cost: one bounded search per remaining carrier of ``keyword``
        (the aggregated minima may have come from the removed node, so
        they cannot be patched in place).  Returns the sorted ids of the
        fragments whose state changed.
        """
        current = self.network.keywords(node)
        if keyword not in current:
            return ()
        self.network = self.network.with_node_keywords(node, current - {keyword})
        home = self.partition.fragment_of(node)
        self._refresh_fragment_keyword_index(home, keyword)
        changed = {home}
        changed |= self._recompute_keyword_entries(keyword)
        self._refresh_bound(changed)
        return tuple(sorted(changed))

    def _recompute_keyword_entries(self, keyword: str) -> set[int]:
        carriers = [
            n for n in self.network.nodes() if keyword in self.network.keywords(n)
        ]
        per_fragment: dict[int, dict[int, float]] = {}
        for carrier in carriers:
            contributions = node_dl_contributions(
                self.network, self.partition, carrier, self.max_radius, self.search
            )
            for fragment_id, portal_distances in contributions.items():
                bucket = per_fragment.setdefault(fragment_id, {})
                for portal, dist in portal_distances.items():
                    if dist < bucket.get(portal, math.inf):
                        bucket[portal] = dist
        changed: set[int] = set()
        for index in self.indexes:
            before = index.keyword_entries.get(keyword)
            fresh = per_fragment.get(index.fragment_id)
            if fresh:
                after = pack_value_list(fresh.items())
                if after != before:
                    index.keyword_entries[keyword] = after
                    index.touch()
                    changed.add(index.fragment_id)
            elif before is not None:
                index.keyword_entries.pop(keyword, None)
                index.touch()
                changed.add(index.fragment_id)
        for fragment_id in changed:
            self._rewrote(fragment_id, keyword)
        return changed

    # ------------------------------------------------------------------
    # Edge-weight updates
    # ------------------------------------------------------------------
    def set_edge_weight(self, u: int, v: int, weight: float) -> tuple[int, ...]:
        """Change the cost of edge ``u -> v`` and restore index exactness.

        Impact analysis (:func:`edge_impact_fragments`) bounds which
        fragments could record a path through the edge; each of those
        falls back to a bounded rebuild — one Algorithm-1 run.  Returns
        the sorted ids of the rebuilt fragments (empty if the weight is
        unchanged).
        """
        old_network = self.network
        current = old_network.edge_weight(u, v)  # raises GraphError if absent
        if current == weight:
            return ()
        new_network = old_network.with_edge_weight(u, v, weight)
        new_search = DenseSearch(new_network)
        affected = edge_impact_fragments(
            old_network, new_network, self.partition, u, v, self.max_radius,
            self.search, new_search,
        )
        self.network, self.search = new_network, new_search
        self._patch_fragment_edge(u, v, weight)
        for fragment_id in sorted(affected):
            self.rebuild_fragment(fragment_id)
        return tuple(sorted(affected))

    def _patch_fragment_edge(self, u: int, v: int, weight: float) -> None:
        """Update the local adjacency of the fragment owning edge ``u-v``."""
        fu = self.partition.fragment_of(u)
        if fu != self.partition.fragment_of(v):
            return  # a cross-fragment edge appears in no fragment adjacency
        fragment = self.fragments[fu]
        adjacency = dict(fragment.adjacency)

        def patch_row(a: int, b: int) -> None:
            row = adjacency.get(a)
            if row:
                adjacency[a] = tuple(
                    (n, weight if n == b else w) for n, w in row
                )

        patch_row(u, v)
        if not fragment.directed:
            patch_row(v, u)
        self.fragments[fu] = replace(fragment, adjacency=adjacency)

    # ------------------------------------------------------------------
    # Structural fallback
    # ------------------------------------------------------------------
    def rebuild_fragment(self, fragment_id: int, config: NPDBuildConfig | None = None) -> None:
        """Re-run Algorithm 1 for one fragment (structural-change path)."""
        if not (0 <= fragment_id < len(self.fragments)):
            raise DisksError(f"no fragment {fragment_id}")
        config = config or NPDBuildConfig(
            max_radius=self.max_radius,
            node_policy=self.indexes[fragment_id].node_policy,
        )
        # Undirected: the kept forward view is its own reverse.
        search = None if self.network.directed else self.search
        index, _stats = build_npd_index(self.network, self.fragments[fragment_id], config, search)
        index.version = self.indexes[fragment_id].version + 1
        self.indexes[fragment_id] = index
        self.rebuilt.add(fragment_id)
        self._refresh_bound((fragment_id,))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rewrote(self, fragment_id: int, key: str | int) -> None:
        """Record that the seed list of ``key`` in this fragment changed."""
        self.seed_keys.setdefault(fragment_id, set()).add(key)

    def _refresh_fragment_keyword_index(self, fragment_id: int, keyword: str) -> None:
        """Re-derive the home fragment's postings after ``keyword`` moved."""
        fragment = self.fragments[fragment_id]
        self.fragments[fragment_id] = replace(
            fragment,
            keyword_index=FragmentKeywordIndex(self.network, sorted(fragment.members)),
        )
        self.indexes[fragment_id].touch()
        self._rewrote(fragment_id, keyword)
