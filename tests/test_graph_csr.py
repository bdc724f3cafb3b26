"""Unit and property tests for the CSR adjacency structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import PARTITION_METHODS, CSRGraph, partition_graph


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #
class TestConstruction:
    def test_from_edge_list_symmetric_stores_both_directions(self):
        graph = CSRGraph.from_edge_list([(0, 1)], num_vertices=3, symmetric=True)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.num_edges == 2

    def test_from_edge_list_directed(self):
        graph = CSRGraph.from_edge_list([(0, 1)], num_vertices=3, symmetric=False)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_deduplication(self):
        graph = CSRGraph.from_edge_list(
            [(0, 1), (0, 1), (1, 0)], num_vertices=2, symmetric=True
        )
        assert graph.num_edges == 2

    def test_empty_edge_list(self):
        graph = CSRGraph.from_edge_list([], num_vertices=4)
        assert graph.num_vertices == 4
        assert graph.num_edges == 0
        assert graph.degrees().tolist() == [0, 0, 0, 0]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edge_list([(0, 5)], num_vertices=3)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_indptr_tail_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))


# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #
class TestQueries:
    def test_degrees_line_graph(self, line_graph):
        assert line_graph.degrees().tolist() == [1, 2, 2, 2, 2, 1]

    def test_neighbors_are_sorted_and_readonly(self, line_graph):
        neighbors = line_graph.neighbors(2)
        assert neighbors.tolist() == [1, 3]
        with pytest.raises(ValueError):
            neighbors[0] = 7

    def test_neighbor_out_of_range(self, line_graph):
        with pytest.raises(IndexError):
            line_graph.neighbors(17)

    def test_star_graph_max_degree(self, star_graph):
        assert star_graph.max_degree() == 7
        assert star_graph.degree(0) == 7
        assert star_graph.degree(3) == 1

    def test_sparsity(self, star_graph):
        expected = 1.0 - 14 / 64
        assert star_graph.sparsity() == pytest.approx(expected)

    def test_average_degree(self, line_graph):
        assert line_graph.average_degree() == pytest.approx(10 / 6)

    def test_edge_array_matches_indptr_walk(self, line_graph):
        indptr, indices = line_graph.indptr, line_graph.indices
        walked = [
            (vertex, int(dst))
            for vertex in range(line_graph.num_vertices)
            for dst in indices[indptr[vertex] : indptr[vertex + 1]]
        ]
        assert [tuple(edge) for edge in line_graph.edge_array().tolist()] == walked

    def test_memory_footprint_positive(self, line_graph):
        assert line_graph.memory_footprint_bytes() > 0


# --------------------------------------------------------------------------- #
# Subgraphs
# --------------------------------------------------------------------------- #
class TestSubgraphs:
    """Induced subgraphs come from ``partition_graph(...).adjacencies``."""

    def test_induced_edges_line(self, line_graph):
        # chunk halves of the 6-path: part 0 owns vertices 0, 1 and 2.
        sub = partition_graph(line_graph, 2).adjacencies[0]
        pairs = {tuple(edge) for edge in sub.edge_array()}
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_induced_edges_empty_set(self, line_graph):
        # Eight chunks of six vertices leave the last two parts empty.
        sub = partition_graph(line_graph, 8).adjacencies[-1]
        assert sub.num_vertices == 0
        assert sub.edge_array().shape == (0, 2)

    def test_induced_edges_disconnected_subset(self, line_graph):
        # Degree balancing deals the path's vertices out so no part owns
        # two neighbours: every part induces no edge and every edge is cut.
        partition = partition_graph(line_graph, 3, method="balanced")
        assert [part.tolist() for part in partition.parts] == [[1, 4], [0, 2], [3, 5]]
        assert [sub.edge_array().shape for sub in partition.adjacencies] == [(0, 2)] * 3
        assert partition.cut_edges == line_graph.num_edges

    def test_subgraph_relabels(self, line_graph):
        partition = partition_graph(line_graph, 2)
        assert partition.parts[1].tolist() == [3, 4, 5]
        sub = partition.adjacencies[1]
        assert sub.num_vertices == 3
        assert sub.degrees().tolist() == [1, 2, 1]
        assert sub.indices.tolist() == [1, 0, 2, 1]


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@st.composite
def random_edge_lists(draw):
    num_vertices = draw(st.integers(min_value=2, max_value=30))
    num_edges = draw(st.integers(min_value=0, max_value=80))
    edges = [
        (
            draw(st.integers(min_value=0, max_value=num_vertices - 1)),
            draw(st.integers(min_value=0, max_value=num_vertices - 1)),
        )
        for _ in range(num_edges)
    ]
    return num_vertices, edges


@settings(max_examples=40, deadline=None)
@given(random_edge_lists())
def test_symmetric_storage_has_symmetric_dense(data):
    num_vertices, edges = data
    graph = CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)
    dense = graph.to_dense()
    np.testing.assert_array_equal(dense, dense.T)


@settings(max_examples=40, deadline=None)
@given(random_edge_lists())
def test_indptr_consistent_with_degrees(data):
    num_vertices, edges = data
    graph = CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)
    assert graph.indptr[-1] == graph.num_edges
    np.testing.assert_array_equal(np.diff(graph.indptr), graph.degrees())


@settings(max_examples=40, deadline=None)
@given(
    random_edge_lists(),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(PARTITION_METHODS),
)
def test_induced_edges_subset_of_all_edges(data, num_parts, method):
    num_vertices, edges = data
    graph = CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)
    all_edges = {tuple(edge) for edge in graph.edge_array().tolist()}
    partition = partition_graph(graph, num_parts, method=method)
    for part, sub in zip(partition.parts, partition.adjacencies):
        # Local ids map back to parent ids through the owned-vertex list.
        induced = {(int(part[src]), int(part[dst])) for src, dst in sub.edge_array()}
        assert induced <= all_edges
        members = set(part.tolist())
        assert induced == {
            (src, dst) for src, dst in all_edges if src in members and dst in members
        }
