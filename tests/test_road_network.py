"""Unit tests for :mod:`repro.graph.road_network`."""

from __future__ import annotations

import io
import math

import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph import (
    NodeKind,
    RoadNetwork,
    RoadNetworkBuilder,
    network_from_dict,
    network_to_dict,
    read_edge_list,
    write_edge_list,
)
from repro.graph.road_network import NO_KEYWORDS

from helpers import make_random_network


def build_triangle(directed: bool = False) -> RoadNetwork:
    b = RoadNetworkBuilder(directed=directed)
    a = b.add_object({"cafe"}, position=(0, 0))
    c = b.add_junction(position=(1, 0))
    d = b.add_object({"gym", "pool"}, position=(0, 1))
    b.add_edge(a, c, 1.0)
    b.add_edge(c, d, 2.0)
    b.add_edge(a, d, 2.5)
    return b.build()


class TestShape:
    def test_node_and_edge_counts(self):
        net = build_triangle()
        assert net.num_nodes == 3
        assert net.num_edges == 3
        assert len(net) == 3

    def test_undirected_edges_counted_once(self):
        net = build_triangle()
        assert len(list(net.edges())) == 3

    def test_directed_arcs_counted_individually(self):
        b = RoadNetworkBuilder(directed=True)
        u = b.add_junction()
        v = b.add_junction()
        b.add_edge(u, v, 1.0)
        net = b.build()
        assert net.num_edges == 1
        assert net.has_edge(u, v)
        assert not net.has_edge(v, u)

    def test_contains(self):
        net = build_triangle()
        assert 0 in net and 2 in net
        assert 3 not in net
        assert "a" not in net

    def test_average_edge_weight(self):
        net = build_triangle()
        assert net.average_edge_weight == pytest.approx((1.0 + 2.0 + 2.5) / 3)

    def test_empty_network(self):
        net = RoadNetworkBuilder().build()
        assert net.num_nodes == 0
        assert net.num_edges == 0
        assert net.is_connected()


class TestAdjacency:
    def test_neighbors_symmetric_when_undirected(self):
        net = build_triangle()
        assert dict(net.neighbors(0)) == {1: 1.0, 2: 2.5}
        assert dict(net.in_neighbors(0)) == {1: 1.0, 2: 2.5}

    def test_directed_in_neighbors_differ(self):
        b = RoadNetworkBuilder(directed=True)
        u, v = b.add_junction(), b.add_junction()
        b.add_edge(u, v, 3.0)
        net = b.build()
        assert list(net.neighbors(u)) == [(v, 3.0)]
        assert list(net.neighbors(v)) == []
        assert list(net.in_neighbors(v)) == [(u, 3.0)]

    def test_neighbor_slice_matches_neighbors(self):
        net = make_random_network(seed=1)
        for node in net.nodes():
            nbrs, wts, lo, hi = net.neighbor_slice(node)
            pairs = [(nbrs[i], wts[i]) for i in range(lo, hi)]
            assert pairs == list(net.neighbors(node))

    def test_degree(self):
        net = build_triangle()
        assert net.degree(0) == 2

    def test_edge_weight(self):
        net = build_triangle()
        assert net.edge_weight(1, 2) == 2.0
        with pytest.raises(GraphError):
            net.edge_weight(0, 0)

    def test_unknown_node_raises(self):
        net = build_triangle()
        with pytest.raises(NodeNotFoundError):
            list(net.neighbors(99))
        with pytest.raises(NodeNotFoundError):
            net.degree(-1)


class TestAttributes:
    def test_kinds(self):
        net = build_triangle()
        assert net.kind(0) is NodeKind.OBJECT
        assert net.kind(1) is NodeKind.JUNCTION
        assert net.is_object(2)

    def test_keywords(self):
        net = build_triangle()
        assert net.keywords(0) == frozenset({"cafe"})
        assert net.keywords(1) == frozenset()
        assert net.has_keyword(2, "gym")
        assert not net.has_keyword(2, "cafe")

    def test_positions(self):
        net = build_triangle()
        assert net.has_positions
        assert net.position(2) == (0.0, 1.0)

    def test_position_absent_raises(self):
        b = RoadNetworkBuilder()
        b.add_junction()
        b.add_junction()
        b.add_edge(0, 1, 1.0)
        net = b.build()
        assert not net.has_positions
        with pytest.raises(GraphError):
            net.position(0)

    def test_object_nodes_and_counts(self):
        net = build_triangle()
        assert sorted(net.object_nodes()) == [0, 2]
        assert net.num_objects() == 2

    def test_keyword_scan(self):
        net = build_triangle()
        assert list(net.keyword_nodes("gym")) == [2]
        assert list(net.keyword_nodes("missing")) == []
        assert net.all_keywords() == {"cafe", "gym", "pool"}

    def test_keyword_frequencies(self):
        net = build_triangle()
        assert net.keyword_frequencies() == {"cafe": 1, "gym": 1, "pool": 1}


class TestConnectivity:
    def test_connected_triangle(self):
        assert build_triangle().is_connected()

    def test_disconnected_components(self):
        b = RoadNetworkBuilder()
        for _ in range(4):
            b.add_junction()
        b.add_edge(0, 1, 1.0)
        b.add_edge(2, 3, 1.0)
        net = b.build()
        assert not net.is_connected()
        assert net.connected_components() == [[0, 1], [2, 3]]

    def test_directed_weak_connectivity(self):
        b = RoadNetworkBuilder(directed=True)
        u, v = b.add_junction(), b.add_junction()
        b.add_edge(u, v, 1.0)
        net = b.build()
        assert net.is_connected()


class TestConstructorValidation:
    def test_inconsistent_offsets_rejected(self):
        with pytest.raises(GraphError):
            RoadNetwork([0, 1], [0, 0], [1.0, 1.0], [NodeKind.JUNCTION], [frozenset()])

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(GraphError):
            RoadNetwork([0, 0], [], [], [], [frozenset()])

    def test_directed_requires_reverse(self):
        with pytest.raises(GraphError):
            RoadNetwork([0], [], [], [], [], directed=True)

    def test_undirected_rejects_reverse(self):
        with pytest.raises(GraphError):
            RoadNetwork([0], [], [], [], [], reverse=([0], [], []))


class TestSharedEmptyKeywords:
    """Every keyword-free node holds the one :data:`NO_KEYWORDS` object."""

    @staticmethod
    def assert_shared(net: RoadNetwork) -> None:
        empty = [node for node in net.nodes() if not net.keywords(node)]
        assert empty
        assert all(net.keywords(node) is NO_KEYWORDS for node in empty)

    def test_after_a_build(self):
        b = RoadNetworkBuilder()
        j = b.add_junction()
        o = b.add_object([])
        k = b.add_object({"cafe"})
        b.add_edge(j, o, 1.0)
        b.add_edge(o, k, 1.0)
        self.assert_shared(b.build())
        b.set_keywords(k, ())
        net = b.build()
        assert all(net.keywords(node) is NO_KEYWORDS for node in (j, o, k))
        self.assert_shared(make_random_network(seed=8, num_junctions=30, num_objects=12))

    def test_after_a_graph_io_round_trip(self):
        net = make_random_network(seed=9, num_junctions=30, num_objects=12)
        stream = io.StringIO()
        write_edge_list(net, stream)
        stream.seek(0)
        self.assert_shared(read_edge_list(stream))
        self.assert_shared(network_from_dict(network_to_dict(net)))

    def test_after_the_last_keyword_is_removed(self):
        net = build_triangle()
        cafe = next(node for node in net.nodes() if net.keywords(node) == {"cafe"})
        cleared = net.with_node_keywords(cafe, [])
        assert cleared.keywords(cafe) is NO_KEYWORDS
        self.assert_shared(cleared)
        assert net.keywords(cafe) == {"cafe"}  # the source network is untouched
