"""Tests for the GAT reference layer and the reordered attention computation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, power_law_graph
from repro.models import (
    GATLayer,
    gat_attention_scores_naive,
    gat_attention_scores_reordered,
    segment_sum,
)


@pytest.fixture()
def small_graph():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    return CSRGraph.from_edge_list(edges, num_vertices=4, symmetric=True)


class TestAttentionReordering:
    """GNNIE's linear-complexity reordering must be numerically identical to
    the naive per-edge concatenated dot product (Section V-A)."""

    def test_small_example(self, small_graph):
        rng = np.random.default_rng(0)
        weighted = rng.normal(size=(4, 6))
        left = rng.normal(size=6)
        right = rng.normal(size=6)
        edges = small_graph.edge_array()
        np.testing.assert_allclose(
            gat_attention_scores_reordered(weighted, left, right, edges),
            gat_attention_scores_naive(weighted, left, right, edges),
            atol=1e-12,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=20),
        feature=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_equivalence_property(self, num_vertices, feature, seed):
        rng = np.random.default_rng(seed)
        graph = power_law_graph(num_vertices, max(num_vertices, 3), seed=seed)
        weighted = rng.normal(size=(num_vertices, feature))
        left = rng.normal(size=feature)
        right = rng.normal(size=feature)
        edges = graph.edge_array()
        if edges.size == 0:
            return
        np.testing.assert_allclose(
            gat_attention_scores_reordered(weighted, left, right, edges),
            gat_attention_scores_naive(weighted, left, right, edges),
            atol=1e-9,
        )

    def test_leaky_relu_applied(self):
        weighted = np.array([[1.0], [-1.0]])
        left = np.array([1.0])
        right = np.array([1.0])
        edges = np.array([[1, 1]])  # score = -2 before LeakyReLU
        scores = gat_attention_scores_reordered(weighted, left, right, edges)
        np.testing.assert_allclose(scores, [-0.4])


class TestGATLayer:
    def test_output_shape(self, small_graph):
        layer = GATLayer(6, 8, seed=1)
        out = layer.forward(small_graph, np.random.default_rng(1).normal(size=(4, 6)))
        assert out.shape == (4, 8)

    def test_attention_coefficients_sum_to_one(self, small_graph):
        """Uniform features must reproduce the mean of the neighborhood —
        i.e. the softmax-normalized α_ij sum to one over {i} ∪ N(i)."""
        layer = GATLayer(5, 3, activation="none", seed=2)
        features = np.ones((4, 5))
        out = layer.forward(small_graph, features)
        expected = np.tile(features[0] @ layer.weight, (4, 1))
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_matches_manual_computation(self, small_graph):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(4, 5))
        layer = GATLayer(5, 3, activation="none", seed=4)
        weighted = features @ layer.weight
        edges = np.concatenate(
            [small_graph.edge_array(), np.stack([np.arange(4)] * 2, axis=1)], axis=0
        )
        scores = gat_attention_scores_naive(
            weighted, layer.attention_left, layer.attention_right, edges
        )
        # Manual per-destination softmax and weighted sum.
        expected = np.zeros((4, 3))
        for vertex in range(4):
            mask = edges[:, 1] == vertex
            exp_scores = np.exp(scores[mask] - scores[mask].max())
            alphas = exp_scores / exp_scores.sum()
            expected[vertex] = (alphas[:, None] * weighted[edges[mask, 0]]).sum(axis=0)
        np.testing.assert_allclose(layer.forward(small_graph, features), expected, atol=1e-10)

    def test_high_attention_neighbor_dominates(self):
        """A neighbor whose features align with the attention vector should
        dominate the weighted aggregation."""
        adjacency = CSRGraph.from_edge_list([(0, 1), (0, 2)], num_vertices=3, symmetric=True)
        layer = GATLayer(2, 2, activation="none", seed=0)
        layer.weight = np.eye(2)
        layer.attention_left = np.zeros(2)
        layer.attention_right = np.array([10.0, 0.0])
        features = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = layer.forward(adjacency, features)
        # For vertex 0 the neighbor 1 (feature [1,0]) gets a huge score.
        assert out[0, 0] > 0.9
        assert out[0, 1] < 0.1

    def test_wrong_width_rejected(self, small_graph):
        with pytest.raises(ValueError):
            GATLayer(6, 8).forward(small_graph, np.ones((4, 3)))
