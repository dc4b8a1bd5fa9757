"""Assorted edge-case tests that cut across modules."""

from __future__ import annotations

import math

import pytest

from repro import DisksEngine, EngineConfig, sgkq
from repro.exceptions import QueryError
from repro.graph import RoadNetworkBuilder
from repro.partition import BfsPartitioner, Partition
from repro.workloads import QueryGenConfig, QueryGenerator


class TestQueryGeneratorLimits:
    def test_impossible_keyword_count_raises(self):
        """Asking for more distinct keywords than the dataset holds fails loudly."""
        builder = RoadNetworkBuilder()
        a = builder.add_object({"only"}, position=(0.0, 0.0))
        b = builder.add_junction(position=(1.0, 0.0))
        builder.add_edge(a, b, 1.0)
        net = builder.build()
        generator = QueryGenerator(net, QueryGenConfig(seed=1, max_range_doublings=2))
        with pytest.raises(QueryError):
            generator.sgkq(5, 1.0)

    def test_single_keyword_dataset_works(self):
        builder = RoadNetworkBuilder()
        a = builder.add_object({"only"}, position=(0.0, 0.0))
        b = builder.add_junction(position=(1.0, 0.0))
        builder.add_edge(a, b, 1.0)
        net = builder.build()
        generator = QueryGenerator(net, QueryGenConfig(seed=1))
        query = generator.sgkq(1, 1.0)
        assert query.keywords() == ["only"]


class TestMinimalDeployments:
    def test_single_node_fragment(self):
        """A fragment holding one node still builds and answers."""
        builder = RoadNetworkBuilder()
        a = builder.add_object({"x"}, position=(0.0, 0.0))
        b = builder.add_object({"y"}, position=(1.0, 0.0))
        c = builder.add_junction(position=(2.0, 0.0))
        builder.add_edge(a, b, 1.0)
        builder.add_edge(b, c, 1.0)
        net = builder.build()

        class _Fixed:
            def partition(self, _net, k):
                return Partition.from_assignment([0, 1, 1], 2)

        engine = DisksEngine.build(
            net,
            EngineConfig(
                num_fragments=2,
                lambda_factor=None,
                max_radius=math.inf,
                partitioner=_Fixed(),
            ),
        )
        assert engine.results(sgkq(["x"], 1.5)) == {a, b}
        assert engine.results(sgkq(["x", "y"], 1.0)) == {a, b}

    def test_two_node_network_end_to_end(self):
        builder = RoadNetworkBuilder()
        a = builder.add_object({"x"})
        b = builder.add_object({"y"})
        builder.add_edge(a, b, 2.0)
        net = builder.build()
        engine = DisksEngine.build(
            net,
            EngineConfig(num_fragments=2, lambda_factor=None, max_radius=math.inf),
        )
        assert engine.results(sgkq(["x", "y"], 2.0)) == {a, b}
        assert engine.results(sgkq(["x", "y"], 1.0)) == frozenset()


class TestDisconnectedNetworks:
    def test_coverage_confined_to_component(self):
        builder = RoadNetworkBuilder()
        a = builder.add_object({"x"}, position=(0.0, 0.0))
        b = builder.add_junction(position=(1.0, 0.0))
        c = builder.add_object({"x"}, position=(10.0, 0.0))
        d = builder.add_junction(position=(11.0, 0.0))
        builder.add_edge(a, b, 1.0)
        builder.add_edge(c, d, 1.0)
        net = builder.build()
        engine = DisksEngine.build(
            net,
            EngineConfig(
                num_fragments=2,
                lambda_factor=None,
                max_radius=math.inf,
                partitioner=BfsPartitioner(seed=1),
            ),
        )
        # Both components have an "x" carrier; nothing crosses the gap.
        assert engine.results(sgkq(["x"], 1.5)) == {a, b, c, d}
        assert engine.results(sgkq(["x"], 0.5)) == {a, c}
