"""Tests that the built NPD-index satisfies the paper's rules and theorems.

These are the scientifically load-bearing tests:

* Rule 1 / Theorem 1 — ``P ∪ SC(P)`` is a *complete fragment*: every
  intra-fragment distance computed locally equals the global distance.
* Rule 2 — DL entries reference portals, are sorted, respect ``maxR``
  and record exact distances.
* Theorem 3 — distances from any source to fragment members are exactly
  recoverable from ``P ∪ SC(P) ∪ DL(P)``.
* Theorem 2/4 (minimality) — SC contains no edge whose shortest path
  stays inside the fragment or passes through another member.
* Rules 1–4 under ties — a brute-force oracle derives, for every
  (node, portal), whether *some* / *every* shortest path has no interior
  member, and the built SC/DL must equal the sets that follow from it,
  in default and strict mode, on the bucket and on the heap path.
"""

from __future__ import annotations

import itertools
import math
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DLNodePolicy,
    NPDBuildConfig,
    build_all_indexes,
    build_fragments,
    build_npd_index,
)
from repro.core.coverage import FragmentRuntime
from repro.partition import BfsPartitioner, Partition
from repro.search import shortest_path_distances
from repro.search.dense import DenseSearch
from repro.workloads.datasets import load_dataset

from helpers import (
    make_random_network,
    make_tied_grid,
    oracle_distances,
    random_partition_assignment,
    to_networkx,
)


def build_case(seed: int, k: int = 3, policy=DLNodePolicy.OBJECTS, max_radius=math.inf):
    net = make_random_network(seed=seed, num_junctions=22, num_objects=10, vocabulary=5)
    partition = BfsPartitioner(seed=seed).partition(net, k)
    fragments = build_fragments(net, partition)
    config = NPDBuildConfig(max_radius=max_radius, node_policy=policy)
    indexes, _stats = build_all_indexes(net, fragments, config)
    return net, partition, fragments, indexes


class TestRule1ShortcutsAndTheorem1:
    def test_shortcut_endpoints_are_members(self):
        net, _p, fragments, indexes = build_case(seed=1)
        for fragment, index in zip(fragments, indexes):
            for (u, v), w in index.shortcuts.items():
                assert u in fragment.members and v in fragment.members

    def test_shortcuts_never_duplicate_an_equal_original_edge(self):
        """Condition 2: a shortcut may coexist with an original edge only
        when the edge is strictly longer than the shortest path."""
        net, _p, fragments, indexes = build_case(seed=2)
        for index in indexes:
            for (u, v), w in index.shortcuts.items():
                if net.has_edge(u, v):
                    assert net.edge_weight(u, v) > w

    def test_shortcut_weights_are_exact_global_distances(self):
        net, _p, _fragments, indexes = build_case(seed=3)
        for index in indexes:
            for (u, v), w in index.shortcuts.items():
                expected = oracle_distances(net, [u]).get(v)
                assert expected is not None
                assert w == pytest.approx(expected)

    def test_shortcut_paths_avoid_other_members(self):
        """Rule 1 condition 3: the realised shortest path has no interior member."""
        import networkx as nx

        from helpers import to_networkx

        net, _p, fragments, indexes = build_case(seed=4)
        graph = to_networkx(net)
        for fragment, index in zip(fragments, indexes):
            for (u, v), w in index.shortcuts.items():
                # At least one shortest path must avoid interior members
                # (the builder records the tree path, which qualifies).
                found_clean = False
                for path in nx.all_shortest_paths(graph, u, v, weight="weight"):
                    interior = set(path[1:-1])
                    if not (interior & fragment.members):
                        found_clean = True
                        break
                assert found_clean, f"shortcut {(u, v)} has no member-free path"

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 400), k=st.integers(2, 4))
    def test_complete_fragment_property(self, seed, k):
        """Theorem 1: local distances on P ∪ SC(P) equal global distances."""
        net, _p, fragments, indexes = build_case(seed=seed, k=k)
        for fragment, index in zip(fragments, indexes):
            runtime = FragmentRuntime(fragment, index)
            members = sorted(fragment.members)
            source = members[0]
            local = shortest_path_distances(runtime.adjacency, [source])
            oracle = oracle_distances(net, [source])
            for member in members:
                expected = oracle.get(member, math.inf)
                assert local.get(member, math.inf) == pytest.approx(expected)


class TestRule2DistanceLists:
    def test_dl_values_reference_portals(self):
        _net, _p, fragments, indexes = build_case(seed=5)
        for fragment, index in zip(fragments, indexes):
            for pairs in list(index.keyword_entries.values()) + list(
                index.node_entries.values()
            ):
                for portal in pairs[0]:
                    assert portal in fragment.portals

    def test_dl_lists_sorted_by_distance(self):
        _net, _p, _fragments, indexes = build_case(seed=6)
        for index in indexes:
            for pairs in list(index.keyword_entries.values()) + list(
                index.node_entries.values()
            ):
                dists = list(pairs[1])
                assert dists == sorted(dists)

    def test_node_entries_are_outside_objects(self):
        net, _p, fragments, indexes = build_case(seed=7)
        for fragment, index in zip(fragments, indexes):
            for node in index.node_entries:
                assert node not in fragment.members
                assert net.is_object(node)

    def test_node_entry_distances_are_exact(self):
        net, _p, _fragments, indexes = build_case(seed=8)
        for index in indexes:
            for node, pairs in index.node_entries.items():
                oracle = oracle_distances(net, [node])
                for portal, distance in zip(*pairs):
                    assert distance == pytest.approx(oracle[portal])

    def test_keyword_entry_is_min_over_outside_nodes(self):
        net, _p, fragments, indexes = build_case(seed=9)
        for fragment, index in zip(fragments, indexes):
            for keyword, pairs in index.keyword_entries.items():
                outside_nodes = [
                    n
                    for n in net.nodes()
                    if keyword in net.keywords(n) and n not in fragment.members
                ]
                if not outside_nodes:
                    continue
                oracle = oracle_distances(net, outside_nodes)
                for portal, distance in zip(*pairs):
                    # Recorded distance is a real path length, never below
                    # the true multi-source minimum.
                    assert distance >= oracle[portal] - 1e-9

    def test_max_radius_prunes_entries(self):
        _net, _p, _fragments, indexes = build_case(seed=10, max_radius=2.0)
        for index in indexes:
            for pairs in list(index.keyword_entries.values()) + list(
                index.node_entries.values()
            ):
                for distance in pairs[1]:
                    assert distance <= 2.0
            for _edge, w in index.shortcuts.items():
                assert w <= 2.0

    def test_node_policy_none_stores_no_node_entries(self):
        _net, _p, _fragments, indexes = build_case(seed=11, policy=DLNodePolicy.NONE)
        for index in indexes:
            assert index.node_entries == {}

    def test_node_policy_all_supersets_objects(self):
        net, partition, fragments, obj_indexes = build_case(seed=12)
        config = NPDBuildConfig(max_radius=math.inf, node_policy=DLNodePolicy.ALL)
        all_indexes, _ = build_all_indexes(net, fragments, config)
        for obj_index, all_index in zip(obj_indexes, all_indexes):
            assert set(obj_index.node_entries) <= set(all_index.node_entries)
            assert obj_index.keyword_entries == all_index.keyword_entries
            assert obj_index.shortcuts == all_index.shortcuts


class TestTheorem3Reconstruction:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_outside_object_distances_recoverable(self, seed):
        """d(A, B) = min over DL pairs of d(A, N) + d_local(N, B)."""
        net, _p, fragments, indexes = build_case(seed=seed, k=3)
        for fragment, index in zip(fragments, indexes):
            runtime = FragmentRuntime(fragment, index)
            outside_objects = [
                n for n in net.object_nodes() if n not in fragment.members
            ][:3]
            for source in outside_objects:
                oracle = oracle_distances(net, [source])
                seeds = index.node_seeds(source, math.inf)
                local = (
                    shortest_path_distances(runtime.adjacency, seeds) if seeds else {}
                )
                for member in fragment.members:
                    expected = oracle.get(member, math.inf)
                    assert local.get(member, math.inf) == pytest.approx(expected)


class TestMinimality:
    def test_no_shortcut_between_locally_connected_pairs(self):
        """A shortcut never duplicates a distance that P alone realises.

        If the (unique) shortest path between two members stays inside
        the fragment, Rule 1 must not add a shortcut for the pair.
        """
        import networkx as nx

        from helpers import to_networkx

        net, _p, fragments, indexes = build_case(seed=13)
        graph = to_networkx(net)
        for fragment, index in zip(fragments, indexes):
            for (u, v) in index.shortcuts:
                paths = list(nx.all_shortest_paths(graph, u, v, weight="weight"))
                fully_internal = any(
                    all(node in fragment.members for node in path) for path in paths
                )
                if len(paths) == 1:
                    assert not fully_internal, (
                        f"shortcut {(u, v)} duplicates an internal path"
                    )

    def test_shortcut_count_is_optimal_under_unique_paths(self):
        """Rule 1's SC equals the brute-force minimal standard shortcut set.

        Computed independently: for every member pair whose unique global
        shortest path leaves the fragment and has no interior member, a
        shortcut is required; no other pair gets one.
        """
        import networkx as nx

        from helpers import to_networkx

        net, _p, fragments, indexes = build_case(seed=14)
        graph = to_networkx(net)
        for fragment, index in zip(fragments, indexes):
            members = sorted(fragment.members)
            expected: set[tuple[int, int]] = set()
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    dist = nx.shortest_path_length(graph, u, v, weight="weight")
                    if net.has_edge(u, v) and net.edge_weight(u, v) <= dist * (1 + 1e-12):
                        continue  # the original edge already realises d(u, v)
                    paths = list(nx.all_shortest_paths(graph, u, v, weight="weight"))
                    if len(paths) != 1:
                        continue  # ties handled by the relaxed Rule 3 superset
                    interior = set(paths[0][1:-1])
                    if interior and not (interior & fragment.members):
                        expected.add((u, v))
            actual_unique = {
                key
                for key in index.shortcuts
                if len(
                    list(
                        nx.all_shortest_paths(graph, key[0], key[1], weight="weight")
                    )
                )
                == 1
            }
            assert expected <= set(index.shortcuts)
            assert actual_unique == expected


# ----------------------------------------------------------------------
# Brute-force Rule 1-4 oracle
# ----------------------------------------------------------------------
def path_facts(net, fragment):
    """``[(p, portal, d(p -> portal), some_clean, every_clean)]`` by brute force.

    Nothing here propagates a flag along a search: *every* comes from
    all-pairs distances (no other member lies on any shortest path), and
    *some* from a second distance — to the portal through non-member
    interiors only — equalling the true one.  Distances are accumulated
    from the portal outward, like the builder's, so floats compare exactly.
    """
    graph = to_networkx(net)
    arcs = graph if net.directed else graph.to_directed()
    backward = arcs.reverse()
    apsp = dict(nx.all_pairs_dijkstra_path_length(arcs, weight="weight"))
    members = fragment.members
    facts = []
    for portal in sorted(fragment.portals):
        to_portal = nx.single_source_dijkstra_path_length(backward, portal, weight="weight")
        # Arcs a path may use when its interior avoids P: any arc whose
        # head is the portal or a non-member (stored reversed).
        outside = nx.DiGraph()
        outside.add_node(portal)
        outside.add_weighted_edges_from(
            (b, a, w) for a, b, w in arcs.edges(data="weight") if b == portal or b not in members
        )
        avoiding = nx.single_source_dijkstra_path_length(outside, portal, weight="weight")
        for p, d in to_portal.items():
            if p == portal:
                continue
            every = not any(
                q not in (p, portal)
                and abs(apsp[p].get(q, math.inf) + apsp[q].get(portal, math.inf) - d) <= 1e-9
                for q in members
            )
            facts.append((p, portal, d, avoiding.get(p) == d, every))
    return facts


def expected_index(net, fragment, facts, *, max_radius, strict, policy):
    """The SC / keyword-DL / node-DL that Rules 1-2 (3-4 if strict) prescribe."""
    shortcuts, keyword_best, node_pairs = {}, {}, {}
    for p, portal, d, some, every in facts:
        if d > max_radius or not (every if strict else some):
            continue
        if p in fragment.members:
            if not (net.has_edge(p, portal) and net.edge_weight(p, portal) <= d * (1 + 1e-12)):
                key = (p, portal) if net.directed or p < portal else (portal, p)
                shortcuts.setdefault(key, d)  # portals ascend: the builder keeps the first too
            continue
        for keyword in net.keywords(p):
            best = keyword_best.setdefault(keyword, {})
            best[portal] = min(d, best.get(portal, math.inf))
        if policy is DLNodePolicy.ALL or (policy is DLNodePolicy.OBJECTS and net.is_object(p)):
            node_pairs.setdefault(p, {})[portal] = d

    def sealed(entries):
        out = {}
        for key, pairs in entries.items():
            ordered = sorted(pairs.items(), key=lambda kv: (kv[1], kv[0]))
            out[key] = (array("q", [p for p, _d in ordered]), array("d", [d for _p, d in ordered]))
        return out

    return shortcuts, sealed(keyword_best), sealed(node_pairs)


def oracle_case(weights: str, directed: bool, seed: int):
    if weights == "tied":
        net = make_tied_grid(seed, directed=directed)
    else:
        net = make_random_network(seed, num_junctions=24, num_objects=12, directed=directed)
    assignment = random_partition_assignment(seed + 7, net.num_nodes, 3)
    fragments = build_fragments(net, Partition.from_assignment(assignment, 3))
    return net, fragments


class TestBruteForceRuleOracle:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("weights", ["tied", "floats"])
    def test_sc_and_dl_equal_the_oracle_sets(self, weights, directed):
        for seed in range(4):
            net, fragments = oracle_case(weights, directed, seed)
            buckets = DenseSearch(net, reverse=True)
            heap = DenseSearch(net, reverse=True)
            heap.bucket_limit = -1  # force the fallback at every radius
            for fragment in fragments:
                facts = path_facts(net, fragment)
                lengths = sorted(d for _p, _portal, d, _s, _e in facts)
                # Finite, exactly a path length (<= is inclusive), unbounded.
                radii = (lengths[len(lengths) // 3] * 0.75, lengths[len(lengths) // 2], math.inf)
                policy = list(DLNodePolicy)[seed % 3]
                for max_radius, strict in itertools.product(radii, (False, True)):
                    config = NPDBuildConfig(
                        max_radius=max_radius, node_policy=policy, strict_tie_rules=strict
                    )
                    expected = expected_index(
                        net, fragment, facts, max_radius=max_radius, strict=strict, policy=policy
                    )
                    within = [f for f in facts if f[2] <= max_radius]
                    for search in (buckets, heap):
                        index, stats = build_npd_index(net, fragment, config, search)
                        built = (index.shortcuts, index.keyword_entries, index.node_entries)
                        assert built == expected, (seed, fragment.fragment_id, max_radius, strict)
                        # BuildStats: nodes within maxR (each portal included),
                        # and the arcs scanned from them.
                        assert stats.settled_nodes == len(within) + fragment.num_portals
                        assert stats.relaxed_edges == sum(
                            len(search.rows[p]) for p, *_ in within
                        ) + sum(len(search.rows[portal]) for portal in fragment.portals)

    def test_every_policy_under_ties(self):
        net, fragments = oracle_case("tied", False, 11)
        for fragment in fragments:
            facts = path_facts(net, fragment)
            for policy in DLNodePolicy:
                config = NPDBuildConfig(max_radius=4.0, node_policy=policy)
                index, _stats = build_npd_index(net, fragment, config)
                assert (index.shortcuts, index.keyword_entries, index.node_entries) == (
                    expected_index(
                        net, fragment, facts, max_radius=4.0, strict=False, policy=policy
                    )
                )

    def test_bounded_build_takes_the_bucket_path(self):
        """Guards the coverage claim above: finite radii sweep buckets."""
        net, _fragments = oracle_case("tied", False, 0)
        search = DenseSearch(net, reverse=True)
        search.run((0,), 3.0, bytes(net.num_nodes))
        assert len(search._buckets) >= 3 and not any(search._buckets)
        search.run((0,), math.inf, bytes(net.num_nodes))  # heap: buckets untouched


PINNED_SETTLED = [7604, 11882, 12031, 16217]


class TestBuildStats:
    def test_settled_nodes_pinned_on_bri_tiny(self):
        """Exact per-fragment counts (4 fragments, λ=10); equal to the
        dict/heap builder this loop replaced."""
        from repro.partition import MultilevelPartitioner

        net = load_dataset("bri_tiny").network
        fragments = build_fragments(net, MultilevelPartitioner(seed=0).partition(net, 4))
        _indexes, stats = build_all_indexes(net, fragments, NPDBuildConfig(lambda_factor=10.0))
        assert [s.settled_nodes for s in stats] == PINNED_SETTLED
