"""Tests for network simplification (a test-side transform) and count queries."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import DisksEngine, EngineConfig, sgkq
from repro.core.dfunction import SetOp
from repro.core.queries import CoverageTerm, KeywordSource, QClassQuery
from repro.exceptions import GraphError
from repro.graph import GeneratorConfig, RoadNetworkBuilder, generate_road_network
from repro.partition import BfsPartitioner

from helpers import make_random_network, oracle_distances
from simplify import simplify_network


class TestSimplify:
    def build_chain(self):
        """objects A - j1 - j2 - j3 - B, plus a spur."""
        b = RoadNetworkBuilder()
        a = b.add_object({"start"})
        j1, j2, j3 = b.add_junction(), b.add_junction(), b.add_junction()
        end = b.add_object({"end"})
        spur = b.add_junction()
        b.add_edge(a, j1, 1.0)
        b.add_edge(j1, j2, 2.0)
        b.add_edge(j2, j3, 3.0)
        b.add_edge(j3, end, 4.0)
        b.add_edge(j2, spur, 5.0)  # j2 has degree 3: kept
        return b.build(), (a, j1, j2, j3, end, spur)

    def test_contracts_chain_nodes(self):
        net, (a, j1, j2, j3, end, spur) = self.build_chain()
        simplified = simplify_network(net)
        # j1 and j3 are pure shape nodes; j2 (degree 3) and spur
        # (degree 1) survive, as do both objects.
        assert simplified.removed_count == 2
        assert set(simplified.node_mapping) == {a, j2, end, spur}

    def test_weights_summed(self):
        net, (a, _j1, j2, _j3, end, _spur) = self.build_chain()
        simplified = simplify_network(net)
        new = simplified.network
        assert new.edge_weight(simplified.new_id(a), simplified.new_id(j2)) == 3.0
        assert new.edge_weight(simplified.new_id(j2), simplified.new_id(end)) == 7.0

    def test_protected_nodes_survive(self):
        net, (_a, j1, _j2, _j3, _end, _spur) = self.build_chain()
        simplified = simplify_network(net, protected=frozenset({j1}))
        assert j1 in simplified.node_mapping

    def test_objects_never_contracted(self):
        net = make_random_network(seed=4, num_junctions=25, num_objects=10)
        simplified = simplify_network(net)
        for old in net.object_nodes():
            assert old in simplified.node_mapping

    def test_directed_rejected(self):
        net = make_random_network(seed=5, directed=True)
        with pytest.raises(GraphError):
            simplify_network(net)

    def test_parallel_edge_keeps_minimum(self):
        b = RoadNetworkBuilder()
        a, v, c = b.add_object({"x"}), b.add_junction(), b.add_object({"y"})
        b.add_edge(a, v, 1.0)
        b.add_edge(v, c, 1.0)
        b.add_edge(a, c, 5.0)  # direct but longer
        net = b.build()
        simplified = simplify_network(net)
        assert simplified.removed_count == 1
        na, nc = simplified.new_id(a), simplified.new_id(c)
        assert simplified.network.edge_weight(na, nc) == 2.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_distances_between_retained_nodes_preserved(self, seed):
        net = make_random_network(
            seed=seed, num_junctions=20, num_objects=6, extra_edge_prob=0.05
        )
        simplified = simplify_network(net)
        kept = sorted(simplified.node_mapping)
        sample = kept[:: max(1, len(kept) // 5)][:5]
        for old_source in sample:
            oracle = oracle_distances(net, [old_source])
            new_dists = oracle_distances(
                simplified.network, [simplified.new_id(old_source)]
            )
            for old_target in kept:
                expected = oracle.get(old_target, math.inf)
                actual = new_dists.get(simplified.new_id(old_target), math.inf)
                assert actual == pytest.approx(expected)

    def test_grid_shrinks_substantially(self):
        net = generate_road_network(
            GeneratorConfig(kind="grid", num_nodes=400, seed=1, drop_fraction=0.4)
        )
        simplified = simplify_network(net)
        assert simplified.removed_count > 0
        assert simplified.network.num_nodes + simplified.removed_count == net.num_nodes


class TestCountQueries:
    @pytest.fixture(scope="class")
    def engine(self):
        net = make_random_network(seed=700, num_junctions=30, num_objects=15, vocabulary=5)
        return DisksEngine.build(
            net,
            EngineConfig(
                num_fragments=4,
                lambda_factor=None,
                max_radius=math.inf,
                partitioner=BfsPartitioner(seed=7),
            ),
        )

    def test_count_matches_results(self, engine):
        for radius in (1.0, 3.0, 6.0):
            query = sgkq(["w0", "w1"], radius)
            assert engine.count(query) == len(engine.results(query))

    def test_count_with_operators(self, engine):
        terms = (
            CoverageTerm(KeywordSource("w0"), 4.0),
            CoverageTerm(KeywordSource("w1"), 2.0),
        )
        query = QClassQuery.from_chain(terms, [SetOp.SUBTRACT])
        assert engine.count(query) == len(engine.results(query))

    def test_count_empty(self, engine):
        query = sgkq(["w0", "w1", "w2", "w3"], 0.0)
        assert engine.count(query) == len(engine.results(query))
