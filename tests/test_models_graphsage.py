"""Tests for the GraphSAGE reference layer and neighbor sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, power_law_graph
from repro.models import GraphSAGELayer, NeighborSampler


@pytest.fixture()
def graph():
    return power_law_graph(60, 240, seed=31)


class TestNeighborSampler:
    def test_sample_size_respected(self, graph):
        sampler = NeighborSampler(seed=0)
        edges = sampler.sample_edges(graph, sample_size=5)
        counts = np.bincount(edges[:, 1], minlength=graph.num_vertices)
        assert counts.max() <= 5

    def test_small_neighborhoods_kept_whole(self, graph):
        sampler = NeighborSampler(seed=0)
        edges = sampler.sample_edges(graph, sample_size=1000)
        assert edges.shape[0] == graph.num_edges

    def test_sampled_edges_exist_in_graph(self, graph):
        sampler = NeighborSampler(seed=1)
        edges = sampler.sample_edges(graph, sample_size=3)
        all_edges = {tuple(edge) for edge in graph.edge_array()}
        assert all((src, dst) in all_edges for src, dst in edges)

    def test_deterministic_given_seed(self, graph):
        first = NeighborSampler(seed=2).sample_edges(graph, 4)
        second = NeighborSampler(seed=2).sample_edges(graph, 4)
        np.testing.assert_array_equal(first, second)

    def test_pregenerated_pool_cycles(self):
        sampler = NeighborSampler(pool_size=8, seed=3)
        draws = sampler._next(20)
        assert draws.shape == (20,)
        # Cycling reuses the same 8 pregenerated values.
        np.testing.assert_allclose(draws[:8], draws[8:16])

    def test_invalid_arguments(self, graph):
        with pytest.raises(ValueError):
            NeighborSampler(pool_size=0)
        with pytest.raises(ValueError):
            NeighborSampler().sample_edges(graph, 0)


def reference_sample_edges(sampler, adjacency, sample_size):
    """The sampler one vertex at a time: whole small neighborhoods, and
    ``sample_size`` pool draws per over-full one, in vertex order."""
    sources, destinations = [], []
    for vertex in range(adjacency.num_vertices):
        neighbors = adjacency.neighbors(vertex)
        if neighbors.size <= sample_size:
            chosen = neighbors
        else:
            draws = sampler._next(sample_size)
            chosen = neighbors[(draws * neighbors.size).astype(np.int64)]
        sources.extend(chosen.tolist())
        destinations.extend([vertex] * chosen.size)
    return np.array([sources, destinations], dtype=np.int64).T.reshape(-1, 2)


@settings(max_examples=60, deadline=None)
@given(
    num_vertices=st.integers(min_value=1, max_value=40),
    num_edges=st.integers(min_value=0, max_value=160),
    sample_size=st.integers(min_value=1, max_value=45),
    pool_size=st.integers(min_value=1, max_value=17),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_sample_edges_matches_per_vertex_reference(
    num_vertices, num_edges, sample_size, pool_size, seed
):
    """The vectorized sampler returns the per-vertex loop's edges and leaves
    the pool cursor where the loop does, over two consecutive calls (a small
    pool makes the draws wrap; sample sizes reach past the maximum degree)."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(num_vertices, size=(num_edges, 2))
    graph = CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)
    fast = NeighborSampler(pool_size=pool_size, seed=seed)
    slow = NeighborSampler(pool_size=pool_size, seed=seed)
    for _ in range(2):
        sampled = fast.sample_edges(graph, sample_size)
        assert sampled.dtype == np.int64 and sampled.shape[1] == 2
        np.testing.assert_array_equal(
            sampled, reference_sample_edges(slow, graph, sample_size)
        )
        assert fast._cursor == slow._cursor


class TestGraphSAGELayer:
    def test_output_shape(self, graph):
        layer = GraphSAGELayer(12, 6, seed=0)
        out = layer.forward(graph, np.random.default_rng(0).normal(size=(60, 12)))
        assert out.shape == (60, 6)

    def test_max_aggregator_includes_self(self):
        adjacency = CSRGraph.from_edge_list([(0, 1)], num_vertices=2, symmetric=True)
        layer = GraphSAGELayer(2, 2, aggregator="max", activation="none", seed=1)
        layer.weight = np.eye(2)
        features = np.array([[5.0, 0.0], [0.0, 3.0]])
        out = layer.forward(adjacency, features)
        # Each vertex takes the elementwise max of itself and its neighbor.
        np.testing.assert_allclose(out, [[5.0, 3.0], [5.0, 3.0]])

    def test_sum_aggregator_adds_self(self):
        adjacency = CSRGraph.from_edge_list([(0, 1)], num_vertices=2, symmetric=True)
        layer = GraphSAGELayer(2, 2, aggregator="sum", activation="none", seed=1)
        layer.weight = np.eye(2)
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            layer.forward(adjacency, features), [[1.0, 1.0], [1.0, 1.0]]
        )

    def test_mean_aggregator(self):
        adjacency = CSRGraph.from_edge_list([(0, 1), (0, 2)], num_vertices=3, symmetric=True)
        layer = GraphSAGELayer(1, 1, aggregator="mean", activation="none", seed=1)
        layer.weight = np.array([[1.0]])
        features = np.array([[0.0], [2.0], [4.0]])
        out = layer.forward(adjacency, features)
        # Vertex 0: mean(2, 4) + self 0 = 3.
        assert out[0, 0] == pytest.approx(3.0)

    def test_invalid_aggregator(self):
        with pytest.raises(ValueError):
            GraphSAGELayer(4, 4, aggregator="median")

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            GraphSAGELayer(4, 4, sample_size=0)

    def test_relu_activation(self, graph):
        layer = GraphSAGELayer(12, 6, activation="relu", seed=0)
        out = layer.forward(graph, np.random.default_rng(1).normal(size=(60, 12)))
        assert np.all(out >= 0)
