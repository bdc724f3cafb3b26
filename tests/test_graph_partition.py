"""Tests for multi-chip edge-cut partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import PARTITION_METHODS, partition_graph
from repro.graph.csr import CSRGraph


def _ring(num_vertices: int) -> CSRGraph:
    """Undirected ring: vertex v neighbors (v-1) % V and (v+1) % V."""
    edges = []
    for v in range(num_vertices):
        edges.append((v, (v + 1) % num_vertices))
        edges.append((v, (v - 1) % num_vertices))
    return CSRGraph.from_edge_list(edges, num_vertices)


class TestPartitionGraph:
    def test_covers_all_vertices_once(self):
        partition = partition_graph(_ring(10), 3)
        covered = np.sort(np.concatenate(partition.parts))
        assert covered.tolist() == list(range(10))
        assert partition.part_sizes() == (4, 3, 3)

    def test_single_part_has_no_cut(self):
        partition = partition_graph(_ring(8), 1)
        assert partition.cut_edges == 0
        assert partition.halo_counts == (0,)
        assert partition.imbalance() == 1.0

    def test_more_parts_than_vertices_leaves_empty_parts(self):
        partition = partition_graph(_ring(3), 8)
        assert partition.num_parts == 8
        assert sum(partition.part_sizes()) == 3
        assert partition.part_sizes().count(0) == 5
        # Empty parts have no owned vertices, hence no halo.
        for part, size in enumerate(partition.part_sizes()):
            if size == 0:
                assert partition.halo_counts[part] == 0

    def test_isolated_vertices_contribute_no_halo(self):
        # 4 isolated vertices: no edges at all, so nothing crosses the cut.
        graph = CSRGraph(indptr=np.zeros(5, dtype=np.int64), indices=np.array([], dtype=np.int64))
        partition = partition_graph(graph, 2)
        assert partition.cut_edges == 0
        assert partition.halo_counts == (0, 0)
        assert sum(partition.part_sizes()) == 4

    def test_self_loops_are_never_cut(self):
        # Two vertices, each with only a self-loop, split onto two chips.
        graph = CSRGraph.from_edge_list([(0, 0), (1, 1)], 2)
        partition = partition_graph(graph, 2)
        assert partition.part_sizes() == (1, 1)
        assert partition.cut_edges == 0
        assert partition.halo_counts == (0, 0)

    def test_ring_cut_statistics(self):
        # A 6-ring chunked into two halves cuts the two boundary edges, in
        # both stored directions: 4 directed cut edges, 2 halo vertices/part.
        partition = partition_graph(_ring(6), 2)
        assert partition.cut_edges == 4
        assert partition.halo_counts == (2, 2)
        assert partition.total_halo_vertices() == 4

    def test_balanced_spreads_degree(self):
        # A star graph: hub 0 has degree 8; chunk puts the hub plus half the
        # leaves on part 0, balanced gives the hub its own part.
        edges = []
        for leaf in range(1, 9):
            edges.append((0, leaf))
            edges.append((leaf, 0))
        graph = CSRGraph.from_edge_list(edges, 9)
        chunk = partition_graph(graph, 2, method="chunk")
        balanced = partition_graph(graph, 2, method="balanced")
        degrees = graph.degrees()
        chunk_loads = [int(degrees[part].sum()) for part in chunk.parts]
        balanced_loads = [int(degrees[part].sum()) for part in balanced.parts]
        assert max(balanced_loads) <= max(chunk_loads)

    def test_methods_are_deterministic(self):
        graph = _ring(17)
        for method in PARTITION_METHODS:
            first = partition_graph(graph, 4, method=method)
            second = partition_graph(graph, 4, method=method)
            assert np.array_equal(first.assignments, second.assignments)
            assert first.cut_edges == second.cut_edges
            assert first.halo_counts == second.halo_counts

    def test_chunk_parts_are_consecutive_id_ranges(self):
        partition = partition_graph(_ring(10), 4, method="chunk")
        assert [part.tolist() for part in partition.parts] == [
            [0, 1, 2],
            [3, 4, 5],
            [6, 7],
            [8, 9],
        ]

    def test_chunk_exact_division_is_balanced(self):
        partition = partition_graph(_ring(9), 3, method="chunk")
        assert partition.part_sizes() == (3, 3, 3)
        assert partition.imbalance() == 1.0

    def test_imbalance_is_largest_part_over_ideal_share(self):
        partition = partition_graph(_ring(10), 3, method="chunk")
        assert partition.imbalance() == pytest.approx(4 / (10 / 3))

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_empty_graph(self, method):
        graph = CSRGraph(indptr=np.zeros(1, dtype=np.int64), indices=np.array([], dtype=np.int64))
        partition = partition_graph(graph, 3, method=method)
        assert partition.part_sizes() == (0, 0, 0)
        assert partition.cut_edges == 0
        assert partition.halo_counts == (0, 0, 0)
        assert partition.imbalance() == 1.0

    def test_balanced_gives_a_hub_its_own_part(self):
        edges = []
        for leaf in range(1, 9):
            edges.append((0, leaf))
            edges.append((leaf, 0))
        graph = CSRGraph.from_edge_list(edges, 9)
        partition = partition_graph(graph, 2, method="balanced")
        assert partition.parts[0].tolist() == [0]
        assert partition.parts[1].tolist() == list(range(1, 9))
        # Every hub-leaf edge is cut, in both stored directions.
        assert partition.cut_edges == 16
        assert partition.halo_counts == (8, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_graph(_ring(4), 0)
        with pytest.raises(ValueError):
            partition_graph(_ring(4), 2, method="metis")


@settings(max_examples=30, deadline=None)
@given(
    num_vertices=st.integers(min_value=1, max_value=60),
    num_parts=st.integers(min_value=1, max_value=12),
    method=st.sampled_from(PARTITION_METHODS),
)
def test_partition_graph_property(num_vertices, num_parts, method):
    graph = _ring(num_vertices)
    partition = partition_graph(graph, num_parts, method=method)
    covered = np.sort(np.concatenate(partition.parts))
    assert covered.tolist() == list(range(num_vertices))
    assert all(
        np.all(partition.assignments[part] == index)
        for index, part in enumerate(partition.parts)
    )
    # Halo of a part can never exceed the number of remote vertices.
    for part, halo in zip(partition.parts, partition.halo_counts):
        assert 0 <= halo <= num_vertices - part.size


@settings(max_examples=50, deadline=None)
@given(
    num_vertices=st.integers(min_value=0, max_value=500),
    num_parts=st.integers(min_value=1, max_value=64),
)
def test_chunk_partition_property(num_vertices, num_parts):
    graph = CSRGraph(
        indptr=np.zeros(num_vertices + 1, dtype=np.int64), indices=np.array([], dtype=np.int64)
    )
    partition = partition_graph(graph, num_parts, method="chunk")
    covered = [vertex for part in partition.parts for vertex in part.tolist()]
    assert covered == list(range(num_vertices))
    sizes = partition.part_sizes()
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) == -(-num_vertices // num_parts)
