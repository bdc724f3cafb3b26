"""Tests for the DiffPool hierarchical pooling level."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import power_law_graph
from repro.models import DiffPoolLevel, DiffPoolModel


@pytest.fixture(scope="module")
def setup():
    graph = power_law_graph(40, 120, seed=41)
    rng = np.random.default_rng(41)
    features = rng.normal(size=(40, 12))
    return graph, features


class TestDiffPoolLevel:
    def test_assignment_rows_sum_to_one(self, setup):
        graph, features = setup
        level = DiffPoolLevel(12, 8, num_clusters=5, seed=0)
        output = level.forward(graph, features)
        np.testing.assert_allclose(output.assignment.sum(axis=1), 1.0)

    def test_coarsened_shapes(self, setup):
        graph, features = setup
        level = DiffPoolLevel(12, 8, num_clusters=5, seed=0)
        output = level.forward(graph, features)
        assert output.coarsened_adjacency.shape == (5, 5)
        assert output.coarsened_features.shape == (5, 8)
        assert output.embeddings.shape == (40, 8)
        assert output.num_clusters == 5

    def test_coarsened_adjacency_formula(self, setup):
        graph, features = setup
        level = DiffPoolLevel(12, 8, num_clusters=4, seed=1)
        output = level.forward(graph, features)
        expected = output.assignment.T @ graph.to_dense() @ output.assignment
        np.testing.assert_allclose(output.coarsened_adjacency, expected, atol=1e-10)

    def test_coarsened_features_formula(self, setup):
        graph, features = setup
        level = DiffPoolLevel(12, 8, num_clusters=4, seed=1)
        output = level.forward(graph, features)
        expected = output.assignment.T @ output.embeddings
        np.testing.assert_allclose(output.coarsened_features, expected, atol=1e-10)

    def test_edge_mass_preserved(self, setup):
        """Sᵀ A S preserves the total edge weight because S rows sum to 1."""
        graph, features = setup
        level = DiffPoolLevel(12, 8, num_clusters=6, seed=2)
        output = level.forward(graph, features)
        assert output.coarsened_adjacency.sum() == pytest.approx(graph.to_dense().sum())

    def test_invalid_clusters(self):
        with pytest.raises(ValueError):
            DiffPoolLevel(12, 8, num_clusters=0)


class TestDiffPoolModel:
    def test_default_cluster_count(self, setup):
        graph, features = setup
        model = DiffPoolModel(12, hidden_features=16, seed=0)
        output = model.forward(graph, features)
        assert output.num_clusters == 4  # hidden // 4
