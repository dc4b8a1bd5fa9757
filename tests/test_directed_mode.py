"""Directed-network coverage across the whole stack.

The paper notes the method "can be easily adapted for the directed
graph"; this suite pins our adaptation down: coverage is defined in the
source→node direction everywhere (builder, engine, baselines), the
backward index search runs on the reverse graph, and every component
that supports directed mode agrees with the oracle.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DisksEngine, EngineConfig, rkq, sgkq
from repro.baselines import BSPQueryEvaluator, CentralizedEvaluator
from repro.core import (
    DLNodePolicy,
    KeywordSource,
    NodeSource,
    NPDBuildConfig,
    TopKQuery,
    build_all_indexes,
    build_fragments,
)
from repro.core.coverage import FragmentRuntime
from repro.partition import BfsPartitioner
from repro.search import shortest_path_distances
from repro.storage import read_index_file, write_index_file

from helpers import make_random_network, oracle_distances


def directed_engine(seed: int, k: int = 3, policy=DLNodePolicy.OBJECTS):
    net = make_random_network(
        seed=seed, num_junctions=16, num_objects=8, vocabulary=4, directed=True
    )
    engine = DisksEngine.build(
        net,
        EngineConfig(
            num_fragments=k,
            lambda_factor=None,
            max_radius=math.inf,
            node_policy=policy,
            partitioner=BfsPartitioner(seed=seed),
        ),
    )
    return net, engine


class TestDirectedIndexRules:
    def test_shortcuts_respect_arc_direction(self):
        net, engine = directed_engine(seed=10)
        for fragment, index in zip(engine.fragments, engine.indexes):
            assert index.directed
            for (u, v), w in index.shortcuts.items():
                # The recorded weight is the exact forward u -> v distance.
                oracle = oracle_distances(net, [u])
                assert w == pytest.approx(oracle[v])

    def test_dl_entries_are_forward_distances(self):
        net, engine = directed_engine(seed=11)
        for fragment, index in zip(engine.fragments, engine.indexes):
            for node, pairs in index.node_entries.items():
                oracle = oracle_distances(net, [node])
                for portal, distance in zip(*pairs):
                    assert distance == pytest.approx(oracle[portal])

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 400))
    def test_complete_fragment_forward_distances(self, seed):
        net, engine = directed_engine(seed=seed)
        for fragment, index in zip(engine.fragments, engine.indexes):
            runtime = FragmentRuntime(fragment, index)
            source = sorted(fragment.members)[0]
            local = shortest_path_distances(runtime.adjacency, [source])
            oracle = oracle_distances(net, [source])
            for member in fragment.members:
                assert local.get(member, math.inf) == pytest.approx(
                    oracle.get(member, math.inf)
                )


class TestDirectedQueries:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1000), radius=st.floats(min_value=0.5, max_value=6.0))
    def test_rkq_matches_oracle(self, seed, radius):
        net, engine = directed_engine(seed=seed)
        rng = random.Random(seed)
        location = rng.choice(list(net.object_nodes()))
        keyword = rng.choice(sorted(net.all_keywords()))
        query = rkq(location, [keyword], radius)
        assert engine.results(query) == CentralizedEvaluator(net).results(query)

    def test_coverage_is_source_to_node(self):
        """A one-way chain reaches forward, not backward."""
        from repro.graph import RoadNetworkBuilder

        b = RoadNetworkBuilder(directed=True)
        a = b.add_object({"shop"})
        mid = b.add_junction()
        c = b.add_object({"other"})
        b.add_edge(a, mid, 1.0)
        b.add_edge(mid, c, 1.0)
        net = b.build()
        oracle = CentralizedEvaluator(net)
        # From the shop, forward: a, mid, c within 2.
        query = sgkq(["shop"], 2.0)
        assert oracle.results(query) == {a, mid, c}
        # From "other" (downstream end), nothing is reachable forward.
        assert oracle.results(sgkq(["other"], 2.0)) == {c}

    def test_bsp_agrees_on_directed(self):
        net, engine = directed_engine(seed=12)
        bsp = BSPQueryEvaluator(net, engine.partition)
        query = sgkq(sorted(net.all_keywords())[:2], 3.0)
        assert bsp.execute(query).result_nodes == engine.results(query)

    def test_topk_on_directed(self):
        net, engine = directed_engine(seed=13)
        keyword = sorted(net.all_keywords())[0]
        seeds = [n for n in net.nodes() if keyword in net.keywords(n)]
        oracle = oracle_distances(net, seeds)
        expected = sorted(oracle.items(), key=lambda kv: (kv[1], kv[0]))[:4]
        result = engine.top_k(TopKQuery(KeywordSource(keyword), 4, 100.0))
        assert [n for n, _d in result.ranking] == [n for n, _d in expected]

    def test_explain_on_directed(self):
        net, engine = directed_engine(seed=14)
        keyword = sorted(net.all_keywords())[0]
        query = sgkq([keyword], 3.0)
        explained = engine.explain(query)
        seeds = [n for n in net.nodes() if keyword in net.keywords(n)]
        oracle = oracle_distances(net, seeds)
        for node, (distance,) in explained.items():
            assert distance == pytest.approx(oracle[node])


class TestDirectedStorage:
    def test_index_file_round_trip_keeps_directedness(self, tmp_path):
        net, engine = directed_engine(seed=15)
        path = tmp_path / "directed.npd"
        write_index_file(engine.indexes[0], path)
        clone = read_index_file(path)
        assert clone.directed
        assert clone.shortcuts == engine.indexes[0].shortcuts


class TestDirectedStrictMode:
    def test_strict_build_exact_on_directed(self):
        net, engine = directed_engine(seed=16)
        fragments = build_fragments(net, engine.partition)
        indexes, _ = build_all_indexes(
            net, fragments, NPDBuildConfig(max_radius=math.inf, strict_tie_rules=True)
        )
        from repro.core.executor import execute_fragment_task

        oracle = CentralizedEvaluator(net)
        query = sgkq(sorted(net.all_keywords())[:2], 4.0)
        merged: set[int] = set()
        for fragment, index in zip(fragments, indexes):
            runtime = FragmentRuntime(fragment, index)
            merged |= execute_fragment_task(runtime, query).local_result
        assert merged == oracle.results(query)
