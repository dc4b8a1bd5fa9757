"""Integration: querying a simplified network gives the same answers.

Degree-2 contraction preserves distances between retained nodes, so for
any SGKQ the result restricted to retained nodes must be identical
(modulo the id remapping) whether the engine runs on the original or the
simplified network — contracted shape nodes are the only difference.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import DisksEngine, EngineConfig, sgkq
from repro.partition import BfsPartitioner

from helpers import make_random_network
from simplify import simplify_network


def build_engine(net, seed):
    return DisksEngine.build(
        net,
        EngineConfig(
            num_fragments=3,
            lambda_factor=None,
            max_radius=math.inf,
            partitioner=BfsPartitioner(seed=seed),
        ),
    )


class TestSimplifiedQueries:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), radius=st.floats(min_value=0.5, max_value=5.0))
    def test_results_agree_on_retained_nodes(self, seed, radius):
        net = make_random_network(
            seed=seed, num_junctions=25, num_objects=10, vocabulary=3, extra_edge_prob=0.04
        )
        simplified = simplify_network(net)
        keywords = sorted(net.all_keywords())[:2]
        query = sgkq(keywords, radius)

        original = build_engine(net, seed).results(query)
        reduced = build_engine(simplified.network, seed).results(query)

        retained_original = {
            simplified.new_id(node) for node in original if node in simplified.node_mapping
        }
        assert retained_original == set(reduced)

    def test_objects_always_comparable(self):
        """Objects survive simplification, so object-level answers are total."""
        net = make_random_network(seed=77, num_junctions=30, num_objects=12, vocabulary=3)
        simplified = simplify_network(net)
        keywords = sorted(net.all_keywords())[:2]
        query = sgkq(keywords, 3.0)
        original = build_engine(net, 1).results(query)
        reduced = build_engine(simplified.network, 1).results(query)
        original_objects = {n for n in original if net.is_object(n)}
        reduced_objects = {
            n for n in reduced if simplified.network.is_object(n)
        }
        assert {simplified.new_id(n) for n in original_objects} == reduced_objects
