"""Tests for the GCN reference layer against a dense matrix formulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.models import GCNLayer, GNNModel


def dense_gcn_reference(adjacency: CSRGraph, features: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """σ-free dense reference: Ã (H W) with Ã = D^-1/2 (A + I) D^-1/2."""
    dense = adjacency.to_dense()
    augmented = dense + np.eye(adjacency.num_vertices)
    degrees = augmented.sum(axis=1)
    inv_sqrt = np.diag(1.0 / np.sqrt(degrees))
    normalized = inv_sqrt @ augmented @ inv_sqrt
    return normalized @ (features @ weight)


@pytest.fixture()
def small_setup():
    rng = np.random.default_rng(0)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    adjacency = CSRGraph.from_edge_list(edges, num_vertices=5, symmetric=True)
    features = rng.normal(size=(5, 8))
    return adjacency, features


class TestGCNLayer:
    def test_matches_dense_reference(self, small_setup):
        adjacency, features = small_setup
        layer = GCNLayer(8, 4, activation="none", seed=1)
        expected = dense_gcn_reference(adjacency, features, layer.weight)
        np.testing.assert_allclose(layer.forward(adjacency, features), expected, atol=1e-10)

    def test_relu_activation_applied(self, small_setup):
        adjacency, features = small_setup
        layer = GCNLayer(8, 4, activation="relu", seed=1)
        assert np.all(layer.forward(adjacency, features) >= 0)

    def test_isolated_vertex_keeps_self_contribution(self):
        adjacency = CSRGraph.from_edge_list([(0, 1)], num_vertices=3, symmetric=True)
        features = np.eye(3)
        layer = GCNLayer(3, 3, activation="none", seed=2)
        out = layer.forward(adjacency, features)
        # Vertex 2 is isolated: its output is its own weighted features
        # scaled by 1/d = 1 (degree 1 after the self loop).
        np.testing.assert_allclose(out[2], features[2] @ layer.weight, atol=1e-12)

    def test_wrong_feature_width_rejected(self, small_setup):
        adjacency, _ = small_setup
        layer = GCNLayer(8, 4)
        with pytest.raises(ValueError):
            layer.forward(adjacency, np.ones((5, 3)))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GCNLayer(0, 4)

    def test_weight_matrices(self):
        layer = GCNLayer(8, 4)
        assert len(layer.weight_matrices()) == 1
        assert layer.weight_matrices()[0].shape == (8, 4)


class TestGNNModelStack:
    def test_two_layer_forward_shape(self, small_setup):
        adjacency, features = small_setup
        model = GNNModel([GCNLayer(8, 16, seed=0), GCNLayer(16, 3, activation="none", seed=1)])
        out = model.forward(adjacency, features)
        assert out.shape == (5, 3)

    def test_layer_outputs_lengths(self, small_setup):
        adjacency, features = small_setup
        model = GNNModel([GCNLayer(8, 16, seed=0), GCNLayer(16, 3, seed=1)])
        outputs = model.layer_outputs(adjacency, features)
        assert len(outputs) == 2
        assert outputs[0].shape == (5, 16)

    def test_dimension_chain_checked(self):
        with pytest.raises(ValueError):
            GNNModel([GCNLayer(8, 16), GCNLayer(8, 3)])

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            GNNModel([])
