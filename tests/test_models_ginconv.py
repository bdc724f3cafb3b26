"""Tests for the GINConv reference layer and graph readout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.models import GINConvLayer, gin_graph_readout


@pytest.fixture()
def triangle():
    return CSRGraph.from_edge_list([(0, 1), (1, 2), (2, 0)], num_vertices=3, symmetric=True)


class TestGINConvLayer:
    def test_matches_manual_computation(self, triangle):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(3, 4))
        layer = GINConvLayer(4, 5, epsilon=0.5, activation="none", seed=1)
        neighbor_sums = np.array(
            [
                features[1] + features[2],
                features[0] + features[2],
                features[0] + features[1],
            ]
        )
        combined = 1.5 * features + neighbor_sums
        expected = layer.mlp.forward(combined)
        np.testing.assert_allclose(layer.forward(triangle, features), expected, atol=1e-12)

    def test_epsilon_zero_default(self, triangle):
        layer = GINConvLayer(4, 4, seed=2)
        assert layer.epsilon == 0.0

    def test_output_shape_with_hidden(self, triangle):
        layer = GINConvLayer(4, 6, hidden_features=16, seed=3)
        out = layer.forward(triangle, np.ones((3, 4)))
        assert out.shape == (3, 6)
        assert layer.mlp.weights[0].shape == (4, 16)

    def test_relu_output_activation(self, triangle):
        layer = GINConvLayer(4, 6, activation="relu", seed=4)
        out = layer.forward(triangle, np.random.default_rng(2).normal(size=(3, 4)))
        assert np.all(out >= 0)

    def test_wrong_width_rejected(self, triangle):
        with pytest.raises(ValueError):
            GINConvLayer(4, 6).forward(triangle, np.ones((3, 7)))

    def test_weight_matrices_lists_mlp_layers(self):
        layer = GINConvLayer(4, 6, hidden_features=8)
        shapes = [w.shape for w in layer.weight_matrices()]
        assert shapes == [(4, 8), (8, 6)]


class TestGraphReadout:
    def test_concatenates_layer_sums(self):
        outputs = [np.ones((5, 3)), 2.0 * np.ones((5, 2))]
        readout = gin_graph_readout(outputs)
        np.testing.assert_allclose(readout, [5.0, 5.0, 5.0, 10.0, 10.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gin_graph_readout([])
