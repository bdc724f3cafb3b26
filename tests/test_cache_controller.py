"""Tests for the degree-aware cache controller and the vertex-order baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CachePolicyConfig,
    DegreeAwareCacheController,
    simulate_policy,
    vertex_record_bytes,
)
from repro.cache.controller import UndirectedEdgeIndex
from repro.graph import CSRGraph, power_law_graph


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(400, 1600, exponent=2.1, seed=71)


def run_controller(graph, capacity, gamma=5, replacement=None):
    policy = CachePolicyConfig(
        capacity_vertices=capacity, gamma=gamma, replacement_count=replacement
    )
    controller = DegreeAwareCacheController(graph, policy, bytes_per_vertex=128)
    return controller.run()


def vertex_order(graph, capacity_vertices):
    return simulate_policy("vertex_order", graph, capacity_vertices)


class TestPolicyConfig:
    def test_defaults(self):
        policy = CachePolicyConfig(capacity_vertices=64)
        assert policy.effective_replacement_count == 8
        assert policy.gamma == 5

    def test_explicit_replacement(self):
        policy = CachePolicyConfig(capacity_vertices=64, replacement_count=5)
        assert policy.effective_replacement_count == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            CachePolicyConfig(capacity_vertices=0)
        with pytest.raises(ValueError):
            CachePolicyConfig(capacity_vertices=8, gamma=-1)
        with pytest.raises(ValueError):
            CachePolicyConfig(capacity_vertices=8, replacement_count=0)

    def test_vertex_record_bytes(self):
        record = vertex_record_bytes(128, 10.0, bytes_per_value=1, index_bytes=4)
        assert record == 128 + 40 + 8
        with pytest.raises(ValueError):
            vertex_record_bytes(0, 5.0)


class TestDegreeAwareController:
    def test_processes_every_edge_exactly_once(self, graph):
        result = run_controller(graph, capacity=80)
        undirected = graph.num_edges // 2
        assert result.total_edges_processed == undirected
        assert int(result.edges_processed.sum()) == undirected

    def test_all_dram_traffic_is_sequential(self, graph):
        result = run_controller(graph, capacity=80)
        assert result.random_accesses == 0
        assert result.sequential_fetch_bytes > 0

    def test_cache_larger_than_graph_single_round(self, graph):
        result = run_controller(graph, capacity=graph.num_vertices)
        assert result.num_rounds == 1
        assert result.vertex_fetches == graph.num_vertices

    def test_small_cache_needs_multiple_rounds_and_refetches(self, graph):
        result = run_controller(graph, capacity=40)
        assert result.num_rounds > 1
        assert result.vertex_fetches > graph.num_vertices

    def test_alpha_snapshots_include_initial_distribution(self, graph):
        result = run_controller(graph, capacity=60)
        assert len(result.alpha_round_snapshots) >= result.num_rounds
        initial = result.alpha_round_snapshots[0]
        np.testing.assert_array_equal(
            np.sort(initial), np.sort(graph.degrees()[graph.degrees() > 0])
        )

    def test_alpha_maximum_decreases_over_rounds(self, graph):
        result = run_controller(graph, capacity=60)
        maxima = [snap.max() if snap.size else 0 for snap in result.alpha_round_snapshots]
        assert all(later <= earlier for earlier, later in zip(maxima, maxima[1:]))

    def test_larger_gamma_does_not_reduce_dram_accesses(self, graph):
        low = run_controller(graph, capacity=60, gamma=2)
        high = run_controller(graph, capacity=60, gamma=30)
        assert high.total_dram_accesses >= low.total_dram_accesses

    def test_degree_order_beats_id_order(self, graph):
        """Streaming high-degree vertices first and processing only resident
        subgraphs needs no more DRAM accesses than walking vertices in id
        order through a FIFO buffer of the same size."""
        degree_order = run_controller(graph, capacity=60)
        id_order = vertex_order(graph, capacity_vertices=60)
        assert degree_order.total_dram_accesses <= id_order.total_dram_accesses

    def test_iteration_columns_consistent(self, graph):
        result = run_controller(graph, capacity=60)
        columns = (
            result.round_index,
            result.edges_processed,
            result.max_edges_per_vertex,
            result.resident_vertices,
        )
        assert all(column.dtype == np.int64 for column in columns)
        assert {column.size for column in columns} == {result.num_iterations}
        assert result.num_iterations > result.num_rounds
        assert (result.resident_vertices <= 60).all()
        assert (result.edges_processed >= 0).all()
        assert (result.max_edges_per_vertex <= result.edges_processed).all()
        assert (np.diff(result.round_index) >= 0).all()
        assert result.round_index[0] == 1 and result.round_index[-1] == result.num_rounds

    def test_star_graph_hub_retained(self):
        """The hub of a star has the highest degree; with a cache of 3 the
        policy keeps it resident while its α stays above γ, so almost every
        leaf edge is processed in the first Round."""
        star = CSRGraph.from_edge_list(
            [(0, i) for i in range(1, 12)], num_vertices=12, symmetric=True
        )
        result = run_controller(star, capacity=3, gamma=2, replacement=2)
        assert result.total_edges_processed == 11
        assert result.num_rounds <= 2
        first_round_edges = result.edges_processed[result.round_index == 1].sum()
        assert first_round_edges >= 9

    def test_deadlock_resolution_when_gamma_zero(self, graph):
        """γ = 0 never marks eviction candidates; the controller must detect
        the deadlock and force progress instead of spinning."""
        result = run_controller(graph, capacity=40, gamma=0)
        assert result.total_edges_processed == graph.num_edges // 2
        assert result.deadlock_events > 0


class TestVertexOrderBaseline:
    def test_counts_random_accesses(self, graph):
        result = vertex_order(graph, capacity_vertices=40)
        assert result.random_accesses > 0
        assert result.total_edges_processed == graph.num_edges // 2

    def test_large_buffer_reduces_random_accesses(self, graph):
        small = vertex_order(graph, capacity_vertices=20)
        large = vertex_order(graph, capacity_vertices=graph.num_vertices)
        assert large.random_accesses < small.random_accesses

    def test_degree_aware_policy_eliminates_random_traffic(self, graph):
        baseline = vertex_order(graph, capacity_vertices=60)
        policy = run_controller(graph, capacity=60)
        assert baseline.random_accesses > 0
        assert policy.random_accesses == 0

    def test_invalid_capacity(self, graph):
        with pytest.raises(ValueError):
            vertex_order(graph, capacity_vertices=0)


@settings(max_examples=15, deadline=None)
@given(
    num_vertices=st.integers(min_value=4, max_value=80),
    num_edges=st.integers(min_value=3, max_value=300),
    capacity=st.integers(min_value=2, max_value=50),
    gamma=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=200),
)
def test_controller_completeness_property(num_vertices, num_edges, capacity, gamma, seed):
    """Regardless of capacity, γ or topology, every undirected edge is
    aggregated exactly once and the α counters drain to zero."""
    graph = power_law_graph(num_vertices, num_edges, seed=seed)
    policy = CachePolicyConfig(capacity_vertices=capacity, gamma=gamma)
    controller = DegreeAwareCacheController(graph, policy, bytes_per_vertex=64)
    result = controller.run()
    assert result.total_edges_processed == graph.num_edges // 2
    if result.alpha_round_snapshots:
        assert result.alpha_round_snapshots[-1].size == 0 or result.num_rounds >= 1


class TestIncidentEdgesVectorization:
    """Micro-assertion: the flat-gather, mask-deduplicated
    incident_edges_once matches a per-vertex slice implementation on every
    query shape (compared sorted: its output order is unspecified)."""

    @staticmethod
    def _reference_incident_edges(index, vertices):
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        pieces = [
            index._sorted_edge_ids[index.indptr[v] : index.indptr[v + 1]]
            for v in vertices
        ]
        return np.unique(np.concatenate(pieces))

    @staticmethod
    def _incident_edges_once(index, vertices):
        member_mask = np.zeros(index.num_vertices, dtype=bool)
        member_mask[vertices] = True
        return np.sort(index.incident_edges_once(vertices, member_mask))

    def test_matches_reference_implementation(self, graph):
        index = UndirectedEdgeIndex(graph)
        rng = np.random.default_rng(5)
        queries = [
            np.empty(0, dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.arange(graph.num_vertices, dtype=np.int64),
            rng.choice(graph.num_vertices, size=37, replace=False).astype(np.int64),
            rng.choice(graph.num_vertices, size=200, replace=False).astype(np.int64),
        ]
        for vertices in queries:
            np.testing.assert_array_equal(
                self._incident_edges_once(index, vertices),
                self._reference_incident_edges(index, vertices),
            )

    def test_isolated_vertices_yield_no_edges(self):
        # Vertex 3 has no incident edges at all.
        adjacency = CSRGraph.from_edge_list(
            [(0, 1), (1, 2)], num_vertices=4, symmetric=True
        )
        index = UndirectedEdgeIndex(adjacency)
        assert self._incident_edges_once(index, np.array([3], dtype=np.int64)).size == 0
        assert self._incident_edges_once(index, np.array([1, 3], dtype=np.int64)).size == 2
