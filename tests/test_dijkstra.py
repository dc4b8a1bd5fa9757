"""Tests for the Dijkstra variants, with networkx as the oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.search import (
    distance_between,
    reconstruct_path,
    shortest_path_distances,
    shortest_paths_with_predecessors,
)
from repro.workloads import toy_figure1

from helpers import make_random_network, oracle_distances


def line_adj(weights):
    """A path graph 0-1-2-... with the given edge weights."""

    def adj(u):
        edges = []
        if u > 0:
            edges.append((u - 1, weights[u - 1]))
        if u < len(weights):
            edges.append((u + 1, weights[u]))
        return edges

    return adj


class TestSingleSource:
    def test_line_distances(self):
        dist = shortest_path_distances(line_adj([1.0, 2.0, 3.0]), [0])
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}

    def test_bound_truncates(self):
        dist = shortest_path_distances(line_adj([1.0, 2.0, 3.0]), [0], bound=3.0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0}

    def test_zero_bound_keeps_seeds_only(self):
        dist = shortest_path_distances(line_adj([1.0, 1.0]), [1], bound=0.0)
        assert dist == {1: 0.0}

    def test_targets_early_exit(self):
        dist = shortest_path_distances(line_adj([1.0] * 10), [0], targets=[3])
        assert 3 in dist
        assert 10 not in dist  # stopped well before the end

    def test_distance_between(self):
        assert distance_between(line_adj([1.0, 2.0]), 0, 2) == 3.0
        assert distance_between(line_adj([1.0, 2.0]), 0, 2, bound=2.0) == math.inf

    def test_figure1_distances(self):
        net = toy_figure1()
        dist = shortest_path_distances(net.neighbors, [0])  # from A (school)
        assert dist == {0: 0.0, 4: 2.0, 1: 3.0, 3: 4.0, 2: 7.0}


class TestMultiSourceAndSeeds:
    def test_multi_source_takes_minimum(self):
        dist = shortest_path_distances(line_adj([1.0, 1.0, 1.0, 1.0]), [0, 4])
        assert dist[2] == 2.0
        assert dist[1] == 1.0
        assert dist[3] == 1.0

    def test_weighted_seeds_act_as_virtual_source(self):
        dist = shortest_path_distances(line_adj([1.0, 1.0]), {0: 5.0, 2: 0.0})
        assert dist == {2: 0.0, 1: 1.0, 0: 2.0}

    def test_weighted_seed_ignored_if_beyond_bound(self):
        dist = shortest_path_distances(line_adj([1.0]), {0: 10.0, 1: 0.0}, bound=0.5)
        assert dist == {1: 0.0}

    def test_duplicate_seed_takes_minimum(self):
        dist = shortest_path_distances(line_adj([1.0]), {0: 3.0})
        assert dist[0] == 3.0

    def test_empty_seeds(self):
        assert shortest_path_distances(line_adj([1.0]), []) == {}


class TestPredecessors:
    def test_path_reconstruction(self):
        run = shortest_paths_with_predecessors(line_adj([1.0, 1.0, 1.0]), [0])
        assert reconstruct_path(run, 3) == [0, 1, 2, 3]

    def test_seed_has_no_predecessor(self):
        run = shortest_paths_with_predecessors(line_adj([1.0]), [0])
        assert run.predecessors[0] == -1
        assert reconstruct_path(run, 0) == [0]

    def test_unreached_target_raises(self):
        run = shortest_paths_with_predecessors(line_adj([1.0, 5.0]), [0], bound=1.0)
        with pytest.raises(KeyError):
            reconstruct_path(run, 2)

    def test_settled_order_is_nondecreasing(self):
        net = make_random_network(seed=8)
        run = shortest_paths_with_predecessors(net.neighbors, [0])
        dists = [run.distances[u] for u in run.settled_order]
        assert dists == sorted(dists)

    def test_tree_edges_are_real_edges(self):
        net = make_random_network(seed=9)
        run = shortest_paths_with_predecessors(net.neighbors, [0])
        for node, pred in run.predecessors.items():
            if pred != -1:
                assert net.has_edge(pred, node)
                assert run.distances[node] == pytest.approx(
                    run.distances[pred] + net.edge_weight(pred, node)
                )


class TestAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2000), source=st.integers(0, 29))
    def test_matches_networkx(self, seed, source):
        net = make_random_network(seed=seed, num_junctions=20, num_objects=10)
        expected = oracle_distances(net, [source])
        actual = shortest_path_distances(net.neighbors, [source])
        assert set(actual) == set(expected)
        for node, dist in expected.items():
            assert actual[node] == pytest.approx(dist)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2000),
        bound=st.floats(min_value=0.5, max_value=8.0),
    )
    def test_bounded_matches_networkx(self, seed, bound):
        net = make_random_network(seed=seed, num_junctions=15, num_objects=5)
        expected = oracle_distances(net, [0], bound=bound)
        actual = shortest_path_distances(net.neighbors, [0], bound=bound)
        assert set(actual) == set(expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_directed_matches_networkx(self, seed):
        net = make_random_network(seed=seed, num_junctions=15, num_objects=5, directed=True)
        expected = oracle_distances(net, [0])
        actual = shortest_path_distances(net.neighbors, [0])
        assert set(actual) == set(expected)
        for node in expected:
            assert actual[node] == pytest.approx(expected[node])
