"""Tests for incremental keyword maintenance of the NPD-index.

Every operation is validated against the gold standard: rebuilding the
whole index from scratch on the updated network and comparing query
results (and, where deterministic, the DL entries themselves).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import CentralizedEvaluator
from repro.core import (
    CoverageTerm,
    KeywordMaintainer,
    KeywordSource,
    NPDBuildConfig,
    QClassQuery,
    SetOp,
    build_all_indexes,
    build_fragments,
    node_dl_contributions,
    sgkq,
)
from repro.core.coverage import FragmentRuntime, reference_distance_map
from repro.core.executor import execute_fragment_task
from repro.exceptions import GraphError
from repro.graph.road_network import RoadNetwork
from repro.partition import BfsPartitioner, Partition

from helpers import (
    make_random_network,
    make_tied_grid,
    oracle_distances,
    random_partition_assignment,
)


def build_state(seed: int, k: int = 3, max_radius: float = math.inf):
    net = make_random_network(seed=seed, num_junctions=18, num_objects=10, vocabulary=4)
    partition = BfsPartitioner(seed=seed).partition(net, k)
    fragments = build_fragments(net, partition)
    indexes, _ = build_all_indexes(net, fragments, NPDBuildConfig(max_radius=max_radius))
    return KeywordMaintainer(net, partition, fragments, list(indexes))


def answers(maintainer: KeywordMaintainer, query) -> frozenset[int]:
    merged: set[int] = set()
    for fragment, index in zip(maintainer.fragments, maintainer.indexes):
        runtime = FragmentRuntime(fragment, index)
        merged |= execute_fragment_task(runtime, query).local_result
    return frozenset(merged)


class TestNodeDLContributions:
    def test_matches_builder_semantics(self):
        """Forward contributions reproduce exact first-entry distances."""
        maintainer = build_state(seed=21)
        net, partition = maintainer.network, maintainer.partition
        source = next(iter(net.object_nodes()))
        contributions = node_dl_contributions(net, partition, source, math.inf)
        oracle = oracle_distances(net, [source])
        for fragment_id, portal_distances in contributions.items():
            fragment = maintainer.fragments[fragment_id]
            assert fragment_id != partition.fragment_of(source)
            for portal, dist in portal_distances.items():
                assert portal in fragment.portals
                assert dist == pytest.approx(oracle[portal])

    def test_bounded_by_max_radius(self):
        maintainer = build_state(seed=22)
        source = next(iter(maintainer.network.object_nodes()))
        contributions = node_dl_contributions(
            maintainer.network, maintainer.partition, source, 2.0
        )
        for portal_distances in contributions.values():
            for dist in portal_distances.values():
                assert dist <= 2.0

    def test_reconstructs_distances_into_fragment(self):
        """source -> member distances via contributions are exact."""
        from repro.search import shortest_path_distances

        maintainer = build_state(seed=23)
        net = maintainer.network
        source = next(iter(net.object_nodes()))
        contributions = node_dl_contributions(net, maintainer.partition, source, math.inf)
        oracle = oracle_distances(net, [source])
        for fragment, index in zip(maintainer.fragments, maintainer.indexes):
            if source in fragment.members:
                continue
            runtime = FragmentRuntime(fragment, index)
            seeds = contributions.get(fragment.fragment_id, {})
            local = shortest_path_distances(runtime.adjacency, seeds) if seeds else {}
            for member in fragment.members:
                assert local.get(member, math.inf) == pytest.approx(
                    oracle.get(member, math.inf)
                )


class TestAddKeyword:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 600))
    def test_add_matches_full_rebuild(self, seed):
        maintainer = build_state(seed=seed)
        rng = random.Random(seed)
        node = rng.choice(list(maintainer.network.object_nodes()))
        maintainer.add_keyword(node, "brandnew")

        rebuilt, _ = build_all_indexes(
            maintainer.network,
            maintainer.fragments,
            NPDBuildConfig(max_radius=math.inf),
        )
        oracle = CentralizedEvaluator(maintainer.network)
        partner = sorted(maintainer.network.all_keywords() - {"brandnew"})[0]
        for radius in (1.0, 4.0):
            query = sgkq(["brandnew", partner], radius)
            assert answers(maintainer, query) == oracle.results(query)
        # The patched entry must agree with the rebuilt entry (same
        # portals, distances equal up to float summation order).
        for patched, fresh in zip(maintainer.indexes, rebuilt):
            patched_pairs = list(zip(*patched.keyword_entries.get("brandnew", ())))
            fresh_pairs = list(zip(*fresh.keyword_entries.get("brandnew", ())))
            assert {portal for portal, _d in patched_pairs} == {
                portal for portal, _d in fresh_pairs
            }
            fresh_by_portal = dict(fresh_pairs)
            for portal, distance in patched_pairs:
                assert distance == pytest.approx(fresh_by_portal[portal])

    def test_add_existing_is_noop(self):
        maintainer = build_state(seed=30)
        node = next(iter(maintainer.network.object_nodes()))
        keyword = next(iter(maintainer.network.keywords(node)))
        before = [dict(i.keyword_entries) for i in maintainer.indexes]
        maintainer.add_keyword(node, keyword)
        after = [dict(i.keyword_entries) for i in maintainer.indexes]
        assert before == after

    def test_add_to_junction_rejected(self):
        maintainer = build_state(seed=31)
        junction = next(
            n for n in maintainer.network.nodes() if not maintainer.network.is_object(n)
        )
        with pytest.raises(GraphError):
            maintainer.add_keyword(junction, "x")

    def test_local_postings_updated(self):
        maintainer = build_state(seed=32)
        node = next(iter(maintainer.network.object_nodes()))
        maintainer.add_keyword(node, "fresh")
        home = maintainer.partition.fragment_of(node)
        assert node in maintainer.fragments[home].keyword_index.local_nodes_with("fresh")

    def test_respects_max_radius(self):
        maintainer = build_state(seed=33, max_radius=3.0)
        node = next(iter(maintainer.network.object_nodes()))
        maintainer.add_keyword(node, "near")
        for index in maintainer.indexes:
            for distance in index.keyword_entries.get("near", ((), ()))[1]:
                assert distance <= 3.0


class TestRemoveKeyword:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 600))
    def test_remove_matches_full_rebuild(self, seed):
        maintainer = build_state(seed=seed)
        rng = random.Random(seed + 1)
        carriers = [
            n for n in maintainer.network.nodes() if "w0" in maintainer.network.keywords(n)
        ]
        if not carriers:
            return
        node = rng.choice(carriers)
        maintainer.remove_keyword(node, "w0")

        oracle = CentralizedEvaluator(maintainer.network, strict_keywords=False)
        partner = sorted(maintainer.network.all_keywords() | {"w1"})[-1]
        for radius in (1.0, 4.0):
            query = QClassQuery.from_chain(
                (CoverageTerm(KeywordSource("w0"), radius),
                 CoverageTerm(KeywordSource(partner), radius)),
                [SetOp.INTERSECT],
            )
            assert answers(maintainer, query) == oracle.results(query)

    def test_remove_last_carrier_clears_entries(self):
        maintainer = build_state(seed=40)
        net = maintainer.network
        carriers = [n for n in net.nodes() if "w2" in net.keywords(n)]
        for node in carriers:
            maintainer.remove_keyword(node, "w2")
        for index in maintainer.indexes:
            assert "w2" not in index.keyword_entries
        assert all("w2" not in maintainer.network.keywords(n) for n in net.nodes())

    def test_remove_absent_is_noop(self):
        maintainer = build_state(seed=41)
        node = next(iter(maintainer.network.object_nodes()))
        before = [dict(i.keyword_entries) for i in maintainer.indexes]
        maintainer.remove_keyword(node, "never-there")
        assert before == [dict(i.keyword_entries) for i in maintainer.indexes]

    def test_add_then_remove_round_trips(self):
        maintainer = build_state(seed=42)
        node = next(iter(maintainer.network.object_nodes()))
        reference = {
            i.fragment_id: dict(i.keyword_entries) for i in maintainer.indexes
        }
        maintainer.add_keyword(node, "transient")
        maintainer.remove_keyword(node, "transient")
        for index in maintainer.indexes:
            assert "transient" not in index.keyword_entries
            # Entries for other keywords are untouched.
            for kw, pairs in reference[index.fragment_id].items():
                assert index.keyword_entries[kw] == pairs


class TestMaintainedEqualsRebuiltUnderTies:
    """Builder and maintainer apply one tie rule, so on tie-heavy grids a
    maintained index is *equal* to a fresh build — not merely equivalent
    at query time (the dict/heap loops disagreed on ~1 DL list in 6)."""

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("max_radius", [4.0, math.inf])
    def test_random_keyword_churn(self, directed, max_radius):
        for seed in range(6):
            net = make_tied_grid(seed, directed=directed)
            partition = Partition.from_assignment(
                random_partition_assignment(seed + 3, net.num_nodes, 3), 3
            )
            fragments = build_fragments(net, partition)
            config = NPDBuildConfig(max_radius=max_radius)
            indexes, _ = build_all_indexes(net, fragments, config)
            maintainer = KeywordMaintainer(net, partition, fragments, list(indexes))
            rng = random.Random(seed)
            objects = list(net.object_nodes())
            for _ in range(8):
                node = rng.choice(objects)
                carried = sorted(maintainer.network.keywords(node))
                if carried and rng.random() < 0.5:
                    maintainer.remove_keyword(node, rng.choice(carried))
                else:
                    maintainer.add_keyword(node, f"w{rng.randrange(6)}")
            fresh, _ = build_all_indexes(maintainer.network, maintainer.fragments, config)
            assert maintainer.indexes == fresh, seed


class TestRowViewLifetime:
    def test_keyword_edits_keep_the_view_and_edge_weights_replace_it(self):
        maintainer = build_state(seed=80)
        view = maintainer.search
        node = next(iter(maintainer.network.object_nodes()))
        maintainer.add_keyword(node, "fresh")
        maintainer.remove_keyword(node, "fresh")
        assert maintainer.search is view
        u, (v, w) = 0, next(iter(maintainer.network.neighbors(0)))
        maintainer.set_edge_weight(u, v, w * 2.5)
        assert maintainer.search is not view
        assert dict(maintainer.search.rows[u])[v] == w * 2.5


class TestRebuildFragment:
    def test_rebuild_is_identical_for_unchanged_fragment(self):
        maintainer = build_state(seed=50)
        original = maintainer.indexes[0]
        maintainer.rebuild_fragment(0)
        rebuilt = maintainer.indexes[0]
        assert rebuilt.shortcuts == original.shortcuts
        assert rebuilt.keyword_entries == original.keyword_entries
        assert rebuilt.node_entries == original.node_entries

    def test_unknown_fragment_rejected(self):
        maintainer = build_state(seed=51)
        from repro.exceptions import DisksError

        with pytest.raises(DisksError):
            maintainer.rebuild_fragment(99)


class TestBoundRuntimeInvalidation:
    """Regression: compiled kernels must not serve stale state after maintenance.

    A :class:`FragmentRuntime` compiles its index into a flat-array
    kernel lazily and memoises it; before the version-tracking fix a
    maintainer mutation left the memoised kernel (and coverage cache)
    answering from the pre-update index.
    """

    def _merged(self, runtimes, query) -> frozenset[int]:
        merged: set[int] = set()
        for runtime in runtimes:
            merged |= execute_fragment_task(runtime, query).local_result
        return frozenset(merged)

    def _reference_merged(self, runtimes, query) -> frozenset[int]:
        """The same union, with every term evaluated by the dict reference."""
        merged: set[int] = set()
        for runtime in runtimes:
            coverages = [set(reference_distance_map(runtime, term)) for term in query.terms]
            merged |= query.expression.evaluate(coverages)
        return frozenset(merged)

    def test_compiled_matches_reference_after_maintenance_batch(self):
        maintainer = build_state(seed=70)
        compiled = [
            FragmentRuntime(f, i) for f, i in zip(maintainer.fragments, maintainer.indexes)
        ]
        for runtime in compiled:
            maintainer.bind(runtime)
        warmup = sgkq(["w0", "w1"], 4.0)
        self._merged(compiled, warmup)  # memoise kernels pre-mutation

        net = maintainer.network
        node = next(iter(net.object_nodes()))
        carrier = next(n for n in net.nodes() if "w1" in net.keywords(n))
        u, (v, w) = 0, next(iter(net.neighbors(0)))
        maintainer.add_keyword(node, "hotfix")
        maintainer.remove_keyword(carrier, "w1")
        maintainer.set_edge_weight(u, v, w * 1.8)

        oracle = CentralizedEvaluator(maintainer.network, strict_keywords=False)
        reference = [
            FragmentRuntime(f, i) for f, i in zip(maintainer.fragments, maintainer.indexes)
        ]
        for keywords in (["hotfix", "w0"], ["w0", "w1"]):
            for radius in (1.0, 4.0):
                query = QClassQuery.from_chain(
                    tuple(CoverageTerm(KeywordSource(kw), radius) for kw in keywords),
                    [SetOp.INTERSECT],
                )
                expected = oracle.results(query)
                assert self._reference_merged(reference, query) == expected
                # The bound, warmed, compiled runtimes agree — the kernels
                # were invalidated and rebuilt, not served stale.
                assert self._merged(compiled, query) == expected

    def test_unbound_runtime_self_heals_on_keyword_mutation(self):
        """In-place index mutations are caught by version tracking even
        when the runtime was never registered with the maintainer."""
        maintainer = build_state(seed=71)
        runtimes = [
            FragmentRuntime(f, i) for f, i in zip(maintainer.fragments, maintainer.indexes)
        ]
        query = sgkq(["w0"], 3.0)
        self._merged(runtimes, query)  # memoise kernels

        node = next(iter(maintainer.network.object_nodes()))
        maintainer.add_keyword(node, "w0")
        oracle = CentralizedEvaluator(maintainer.network)
        # Keyword ops mutate the shared index objects in place, so the
        # unbound runtimes notice the version bump on their next query.
        assert self._merged(runtimes, query) == oracle.results(query)


class TestWithNodeKeywords:
    def test_shares_structure(self):
        net = make_random_network(seed=60)
        node = next(iter(net.object_nodes()))
        derived = net.with_node_keywords(node, {"replaced"})
        assert derived.keywords(node) == {"replaced"}
        assert list(derived.edges()) == list(net.edges())
        assert net.keywords(node) != {"replaced"}  # original untouched

    def test_junction_rejected(self):
        net = make_random_network(seed=61)
        junction = next(n for n in net.nodes() if not net.is_object(n))
        with pytest.raises(GraphError):
            net.with_node_keywords(junction, {"x"})

    def test_clearing_junction_keywords_allowed(self):
        net = make_random_network(seed=62)
        junction = next(n for n in net.nodes() if not net.is_object(n))
        derived = net.with_node_keywords(junction, ())
        assert derived.keywords(junction) == frozenset()
