"""Tests for the GraphSAGE reference layer and neighbor sampler."""

from __future__ import annotations

import numpy as np
import pytest

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
