"""Road-network substrate (paper Definition 1).

This subpackage provides the weighted keyword-labelled graph the whole
system is built on: an immutable CSR-backed :class:`RoadNetwork`, an
incremental :class:`RoadNetworkBuilder`, synthetic generators standing in
for the paper's OSM extracts, text/JSON serialisation and summary
statistics.
"""

from repro.graph.road_network import NodeKind, RoadNetwork
from repro.graph.build import RoadNetworkBuilder, ObjectSpec, attach_objects
from repro.graph.generators import (
    GeneratorConfig,
    generate_grid_network,
    generate_delaunay_network,
    generate_road_network,
)
from repro.graph.io import (
    write_edge_list,
    read_edge_list,
    network_to_dict,
    network_from_dict,
    save_network_json,
    load_network_json,
)
from repro.graph.stats import NetworkStats, compute_stats

__all__ = [
    "NodeKind",
    "RoadNetwork",
    "RoadNetworkBuilder",
    "ObjectSpec",
    "attach_objects",
    "GeneratorConfig",
    "generate_grid_network",
    "generate_delaunay_network",
    "generate_road_network",
    "write_edge_list",
    "read_edge_list",
    "network_to_dict",
    "network_from_dict",
    "save_network_json",
    "load_network_json",
    "NetworkStats",
    "compute_stats",
]
