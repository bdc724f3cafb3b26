"""End-to-end integration and robustness tests.

These tests exercise the whole stack together: functional models vs the
blocked hardware mapping, the simulator across unusual graph shapes
(stars, chains, near-empty graphs), and consistency between the analysis
helpers and the simulator outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import simulate_policy
from repro.datasets import tiny_dataset
from repro.graph import CSRGraph, Graph
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import WeightingKnobs, pricing_view
from repro.mapping import (
    AggregationCycleModel,
    attention_terms_functional,
    weighting_functional,
)
from repro.models import GATLayer, GCNLayer, build_model, segment_sum
from repro.plan import lower
from repro.sim import GNNIEExecutor, result_to_dict


# --------------------------------------------------------------------------- #
# Functional equivalence of the hardware mapping, end to end
# --------------------------------------------------------------------------- #
class TestMappingMatchesReferenceModels:
    """The blocked/cached execution order must reproduce the reference GNN."""

    @pytest.fixture(scope="class")
    def graph(self):
        return tiny_dataset(num_vertices=48, feature_length=40, num_labels=5, seed=9)

    def test_gcn_layer_via_blocked_weighting_and_cached_aggregation(self, graph):
        """Weighting in k-blocks + aggregation in cache-controller order ==
        the reference GCN layer (up to float tolerance)."""
        knobs = pricing_view(WeightingKnobs, AcceleratorConfig(), GNNIE_TABLE)
        layer = GCNLayer(graph.feature_length, 16, activation="none", seed=4)

        # Hardware-order Weighting.
        weighted = weighting_functional(graph.features, layer.weight, knobs)

        # Hardware-order Aggregation: process edges in the order the cache
        # controller schedules them (subgraph by subgraph).
        adjacency = graph.adjacency
        degrees = adjacency.degrees().astype(np.float64) + 1.0
        inv_sqrt = 1.0 / np.sqrt(degrees)
        cache_result = simulate_policy(
            "degree_aware",
            adjacency,
            12,
            bytes_per_vertex=64,
            gamma=3,
            index_bytes=GNNIE_TABLE.index_bytes,
        )
        assert cache_result.total_edges_processed == adjacency.num_edges // 2

        directed = adjacency.edge_array()
        coefficients = inv_sqrt[directed[:, 0]] * inv_sqrt[directed[:, 1]]
        messages = weighted[directed[:, 0]] * coefficients[:, None]
        aggregated = segment_sum(messages, directed[:, 1], adjacency.num_vertices)
        aggregated += weighted * (inv_sqrt**2)[:, None]

        reference = layer.forward(adjacency, graph.features)
        np.testing.assert_allclose(aggregated, reference, atol=1e-9)

    def test_gat_terms_computed_once_per_vertex_suffice(self, graph):
        """The blocked e_{i,1}/e_{i,2} terms reproduce the reference GAT layer
        when combined per edge — validating the O(|V|+|E|) reordering end to
        end."""
        knobs = pricing_view(WeightingKnobs, AcceleratorConfig(), GNNIE_TABLE)
        layer = GATLayer(graph.feature_length, 12, activation="none", seed=5)
        weighted = weighting_functional(graph.features, layer.weight, knobs)
        center, neighbor = attention_terms_functional(
            weighted, layer.attention_left, layer.attention_right, GNNIE_TABLE
        )
        adjacency = graph.adjacency
        edges = np.concatenate(
            [adjacency.edge_array(), np.stack([np.arange(graph.num_vertices)] * 2, axis=1)],
            axis=0,
        )
        scores = center[edges[:, 1]] + neighbor[edges[:, 0]]
        scores = np.where(scores > 0, scores, 0.2 * scores)  # LeakyReLU
        # Per-destination softmax + weighted sum (the edge-mapped computation).
        output = np.zeros_like(weighted)
        for vertex in range(graph.num_vertices):
            mask = edges[:, 1] == vertex
            exp_scores = np.exp(scores[mask] - scores[mask].max())
            alphas = exp_scores / exp_scores.sum()
            output[vertex] = (alphas[:, None] * weighted[edges[mask, 0]]).sum(axis=0)
        reference = layer.forward(adjacency, graph.features)
        np.testing.assert_allclose(output, reference, atol=1e-9)

    def test_aggregate_subgraph_iterations_cover_reference_sum(self, graph):
        """Splitting aggregation across arbitrary edge batches (as the cache
        controller does) yields the same totals as a single pass."""
        rng = np.random.default_rng(0)
        weighted = rng.normal(size=(graph.num_vertices, 8))
        undirected = graph.adjacency.edge_array()
        undirected = undirected[undirected[:, 0] < undirected[:, 1]]
        accumulator = np.zeros_like(weighted)
        # Process in three arbitrary chunks.
        for chunk in np.array_split(undirected, 3):
            AggregationCycleModel.aggregate_subgraph(weighted, chunk, accumulator)
        directed = graph.adjacency.edge_array()
        expected = segment_sum(weighted[directed[:, 0]], directed[:, 1], graph.num_vertices)
        np.testing.assert_allclose(accumulator, expected, atol=1e-9)


# --------------------------------------------------------------------------- #
# Robustness of the simulator on degenerate graph shapes
# --------------------------------------------------------------------------- #
def _graph_from_edges(edges, num_vertices, feature_length=24, num_labels=3, seed=0):
    adjacency = CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)
    rng = np.random.default_rng(seed)
    features = np.where(
        rng.random((num_vertices, feature_length)) < 0.2,
        rng.random((num_vertices, feature_length)),
        0.0,
    )
    features[features.sum(axis=1) == 0, 0] = 1.0
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=rng.integers(num_labels, size=num_vertices),
        name="degenerate",
        num_label_classes=num_labels,
    )


class TestSimulatorRobustness:
    @pytest.mark.parametrize(
        "edges,num_vertices",
        [
            ([(0, i) for i in range(1, 16)], 16),  # star (extreme power law)
            ([(i, i + 1) for i in range(15)], 16),  # chain (minimum degrees)
            ([(0, 1)], 8),  # mostly isolated vertices
            ([(i, j) for i in range(8) for j in range(i + 1, 8)], 8),  # clique (dense)
        ],
    )
    @pytest.mark.parametrize("family", ["gcn", "gat"])
    def test_degenerate_topologies_simulate(self, edges, num_vertices, family):
        graph = _graph_from_edges(edges, num_vertices)
        result = GNNIEExecutor().execute(lower(family, graph), graph)
        assert result.total_cycles > 0
        assert np.isfinite(result.latency_seconds)
        assert result.energy_joules > 0

    def test_single_label_graph(self):
        graph = _graph_from_edges([(0, 1), (1, 2)], 4, num_labels=1)
        result = GNNIEExecutor().execute(lower("gcn", graph), graph)
        assert result.layers[-1].out_features >= 2  # clamped to a sane minimum

    def test_tiny_buffer_configuration(self):
        graph = _graph_from_edges([(i, (i + 1) % 32) for i in range(32)], 32)
        config = AcceleratorConfig(input_buffer_bytes=1024, output_buffer_bytes=2048)
        result = GNNIEExecutor(config).execute(lower("gcn", graph), graph)
        assert result.total_cycles > 0

    def test_export_of_every_family(self, tiny_graph):
        executor = GNNIEExecutor()
        for family in ("gcn", "gat", "graphsage", "ginconv", "diffpool"):
            report = result_to_dict(executor.execute(lower(family, tiny_graph), tiny_graph))
            assert report["total_cycles"] > 0
            assert report["layers"]


# --------------------------------------------------------------------------- #
# Cross-consistency between simulator outputs and analysis helpers
# --------------------------------------------------------------------------- #
class TestConsistency:
    def test_latency_equals_cycles_over_frequency(self, tiny_graph):
        result = GNNIEExecutor().execute(lower("gcn", tiny_graph), tiny_graph)
        assert result.latency_seconds == pytest.approx(
            result.total_cycles / GNNIE_TABLE.frequency_hz
        )

    def test_layer_cycles_sum_to_total(self, tiny_graph):
        result = GNNIEExecutor().execute(lower("gat", tiny_graph), tiny_graph)
        assert result.total_cycles == sum(
            layer.total_cycles for layer in result.layers
        ) + result.global_preprocessing_cycles

    def test_energy_breakdown_sums_to_total(self, tiny_graph):
        result = GNNIEExecutor().execute(lower("gcn", tiny_graph), tiny_graph)
        breakdown = result.energy.as_dict()
        component_sum = sum(
            value for key, value in breakdown.items() if key != "total_pj"
        )
        assert component_sum == pytest.approx(breakdown["total_pj"])

    def test_models_reference_and_simulator_agree_on_dimensions(self, tiny_graph):
        model = build_model("gcn", tiny_graph.feature_length, tiny_graph.num_label_classes)
        output = model.forward(tiny_graph.adjacency, tiny_graph.features)
        result = GNNIEExecutor().execute(lower("gcn", tiny_graph), tiny_graph)
        assert output.shape[1] == result.layers[-1].out_features
