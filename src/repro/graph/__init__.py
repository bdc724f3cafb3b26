"""Graph data structures, generators and multi-chip partitioning for the GNNIE reproduction."""

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, GraphStats
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    power_law_degree_sequence,
    power_law_graph,
)
from repro.graph.partition import PARTITION_METHODS, GraphPartition, partition_graph

__all__ = [
    "CSRGraph",
    "Graph",
    "GraphStats",
    "power_law_graph",
    "community_graph",
    "erdos_renyi_graph",
    "power_law_degree_sequence",
    "GraphPartition",
    "PARTITION_METHODS",
    "partition_graph",
]
