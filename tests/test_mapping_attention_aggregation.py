"""Tests for the GAT attention mapping and the Aggregation cycle model."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import power_law_graph
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import AggregationKnobs, pricing_view
from repro.mapping import (
    AggregationCycleModel,
    IterationCost,
    attention_terms_functional,
    naive_attention_operations,
    schedule_attention,
)
from repro.models import segment_sum


def _knobs(config):
    """``config``'s Aggregation view on the default table."""
    return pricing_view(AggregationKnobs, config, GNNIE_TABLE)


class TestAttentionSchedule:
    def test_mac_count_is_linear(self):
        config = AcceleratorConfig()
        schedule = schedule_attention(1000, 128, config, GNNIE_TABLE)
        assert schedule.total_macs == 2 * 1000 * 128

    def test_linear_vs_naive_operation_count(self):
        """GNNIE's reordering is O(V+E); the naive scheme is O(E*F)."""
        num_vertices, num_edges, feature = 1000, 20_000, 128
        reordered = schedule_attention(
            num_vertices, feature, AcceleratorConfig(), GNNIE_TABLE
        ).total_macs
        naive = naive_attention_operations(num_vertices, num_edges, feature)
        assert naive > 5 * reordered

    def test_cycles_scale_with_vertices(self):
        config = AcceleratorConfig()
        small = schedule_attention(100, 128, config, GNNIE_TABLE)
        large = schedule_attention(10_000, 128, config, GNNIE_TABLE)
        assert large.compute_cycles > 50 * small.compute_cycles

    def test_chunk_and_column_batch(self):
        config = AcceleratorConfig()
        schedule = schedule_attention(500, 130, config, GNNIE_TABLE)
        assert schedule.chunk_size == -(-130 // GNNIE_TABLE.num_cols)
        assert schedule.vertices_per_column >= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            schedule_attention(-1, 128, AcceleratorConfig(), GNNIE_TABLE)
        with pytest.raises(ValueError):
            schedule_attention(10, 0, AcceleratorConfig(), GNNIE_TABLE)
        with pytest.raises(ValueError):
            naive_attention_operations(-1, 2, 3)

    def test_functional_blocked_terms_match_direct(self):
        rng = np.random.default_rng(3)
        weighted = rng.normal(size=(50, 70))
        left = rng.normal(size=70)
        right = rng.normal(size=70)
        center, neighbor = attention_terms_functional(weighted, left, right, GNNIE_TABLE)
        np.testing.assert_allclose(center, weighted @ left, atol=1e-10)
        np.testing.assert_allclose(neighbor, weighted @ right, atol=1e-10)

    def test_functional_rejects_mismatched_vector(self):
        with pytest.raises(ValueError):
            attention_terms_functional(np.ones((4, 8)), np.ones(5), np.ones(8), GNNIE_TABLE)


def _one_iteration(model, edges, *, max_edges_per_vertex=0, resident_vertices=0):
    """Price a single iteration through one-element cache-simulation columns."""
    return model.iteration_totals(
        np.array([edges]), np.array([max_edges_per_vertex]), np.array([resident_vertices])
    )


class TestAggregationCycleModel:
    def test_load_balanced_uses_full_array(self):
        config = AcceleratorConfig()
        model = AggregationCycleModel(_knobs(config), feature_length=128)
        cost = _one_iteration(model, 1000, max_edges_per_vertex=50, resident_vertices=500)
        ideal = int(np.ceil(2 * 1000 * 128 / config.total_macs))
        assert cost.compute_cycles == ideal

    def test_no_load_balancing_pays_for_hub_vertices(self):
        config = replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)
        model = AggregationCycleModel(_knobs(config), feature_length=128)
        balanced = AggregationCycleModel(_knobs(AcceleratorConfig()), feature_length=128)
        skewed = _one_iteration(model, 1000, max_edges_per_vertex=400)
        level = _one_iteration(balanced, 1000, max_edges_per_vertex=400)
        assert skewed.compute_cycles > level.compute_cycles

    def test_no_lb_cost_grows_with_hub_degree(self):
        config = replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)
        model = AggregationCycleModel(_knobs(config), feature_length=64)
        small_hub = _one_iteration(model, 1000, max_edges_per_vertex=10)
        large_hub = _one_iteration(model, 1000, max_edges_per_vertex=500)
        assert large_hub.compute_cycles > small_hub.compute_cycles

    def test_gat_adds_multiplies_and_sfu_work(self):
        plain = AggregationCycleModel(_knobs(AcceleratorConfig()), 128, is_gat=False)
        gat = AggregationCycleModel(_knobs(AcceleratorConfig()), 128, is_gat=True)
        plain_cost = _one_iteration(plain, 500, resident_vertices=300)
        gat_cost = _one_iteration(gat, 500, resident_vertices=300)
        assert gat_cost.multiply_ops > 0 and plain_cost.multiply_ops == 0
        assert gat_cost.sfu_ops > 0 and plain_cost.sfu_ops == 0
        assert gat_cost.compute_cycles > plain_cost.compute_cycles

    def test_finalization_only_for_gat(self):
        plain = AggregationCycleModel(_knobs(AcceleratorConfig()), 128, is_gat=False)
        gat = AggregationCycleModel(_knobs(AcceleratorConfig()), 128, is_gat=True)
        assert plain.finalization_cost(1000).sfu_cycles == 0
        assert gat.finalization_cost(1000).sfu_cycles > 0

    def test_zero_edges(self):
        model = AggregationCycleModel(_knobs(AcceleratorConfig()), 64)
        cost = _one_iteration(model, 0)
        assert cost.compute_cycles == 0 and cost.addition_ops == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            AggregationCycleModel(_knobs(AcceleratorConfig()), 0)
        model = AggregationCycleModel(_knobs(AcceleratorConfig()), 16)
        with pytest.raises(ValueError, match="edges"):
            _one_iteration(model, -1)
        with pytest.raises(ValueError):
            model.finalization_cost(-1)

    def test_load_balanced_cycles_round_up_to_whole_array(self):
        model = AggregationCycleModel(_knobs(AcceleratorConfig()), 8)
        # 76 edges x 2 endpoints x 8 elements = 1216 adds: one array cycle.
        assert _one_iteration(model, 76).compute_cycles == 1
        assert _one_iteration(model, 77).compute_cycles == 2

    def test_no_lb_bottleneck_is_average_share_plus_worst_vertex(self):
        config = replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)
        model = AggregationCycleModel(_knobs(config), 64)
        cost = _one_iteration(model, 1000, max_edges_per_vertex=40)
        average_share = 2 * 1000 * 64 / config.num_cpes
        worst_vertex = 40 * 64
        macs_per_cpe = config.total_macs / config.num_cpes
        assert cost.compute_cycles == int(np.ceil((average_share + worst_vertex) / macs_per_cpe))

    def test_gat_no_lb_serializes_multiply_and_add_on_the_worst_vertex(self):
        config = replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)
        model = AggregationCycleModel(_knobs(config), 64, is_gat=True)
        cost = _one_iteration(model, 1000, max_edges_per_vertex=40)
        average_share = 4 * 1000 * 64 / config.num_cpes
        worst_vertex = 2 * 40 * 64
        macs_per_cpe = config.total_macs / config.num_cpes
        assert cost.compute_cycles == int(np.ceil((average_share + worst_vertex) / macs_per_cpe))

    def test_gat_sfu_work_per_edge_and_resident_vertex(self):
        config = AcceleratorConfig()
        model = AggregationCycleModel(_knobs(config), 16, is_gat=True)
        cost = _one_iteration(model, 100, resident_vertices=30)
        # LeakyReLU and exp on both directions of every edge, plus one
        # softmax-denominator add per resident vertex.
        assert cost.sfu_ops == 2 * 2 * 100 + 30
        # The 2-cycle lookup-table exp gates each SFU lane.
        lanes = GNNIE_TABLE.sfu_columns * config.num_rows
        assert GNNIE_TABLE.exp_latency_cycles == 2
        assert cost.sfu_cycles == -(-cost.sfu_ops * 2 // lanes)
        assert cost.multiply_ops == cost.addition_ops == 2 * 100 * 16

    def test_gat_finalization_divides_every_output_element(self):
        config = AcceleratorConfig()
        cost = AggregationCycleModel(_knobs(config), 16, is_gat=True).finalization_cost(100)
        assert cost.sfu_ops == 100 * 16
        # A division takes 4 cycles on each of the 64 SFU lanes.
        assert GNNIE_TABLE.sfu_columns * config.num_rows == 64
        assert GNNIE_TABLE.divide_latency_cycles == 4
        assert cost.sfu_cycles == 100 * 16 * 4 // 64
        assert cost.compute_cycles == 0

    def test_sfu_lanes_follow_array_rows(self):
        full = AggregationCycleModel(_knobs(AcceleratorConfig()), 16, is_gat=True)
        half_config = AcceleratorConfig(macs_per_group=(4,), rows_per_group=(8,))
        half = AggregationCycleModel(_knobs(half_config), 16, is_gat=True)
        full_cycles = full.finalization_cost(100).sfu_cycles
        assert half.finalization_cost(100).sfu_cycles == 2 * full_cycles

    def test_each_iteration_rounds_up_separately(self):
        model = AggregationCycleModel(_knobs(AcceleratorConfig()), 8)
        zeros = np.zeros(3, dtype=np.int64)
        cost = model.iteration_totals(np.array([77, 77, 0]), zeros, zeros)
        assert cost.edges_processed == 154
        assert cost.compute_cycles == 2 * _one_iteration(model, 77).compute_cycles == 4
        # Pooled into one iteration the same edges would need only 3 cycles.
        assert _one_iteration(model, 154).compute_cycles == 3

    @pytest.mark.parametrize("is_gat", [False, True], ids=["gcn", "gat"])
    @pytest.mark.parametrize("load_balancing", [True, False], ids=["lb", "no_lb"])
    def test_totals_sum_the_per_iteration_costs(self, is_gat, load_balancing):
        config = replace(AcceleratorConfig(), enable_aggregation_load_balancing=load_balancing)
        model = AggregationCycleModel(_knobs(config), 48, is_gat=is_gat)
        rng = np.random.default_rng(17)
        edges = rng.integers(0, 3000, size=25)
        max_edges = rng.integers(0, 60, size=25)
        resident = rng.integers(1, 400, size=25)
        totals = model.iteration_totals(edges, max_edges, resident)
        singles = [
            _one_iteration(model, e, max_edges_per_vertex=m, resident_vertices=r)
            for e, m, r in zip(edges, max_edges, resident)
        ]
        for field in (
            "edges_processed",
            "compute_cycles",
            "sfu_cycles",
            "addition_ops",
            "multiply_ops",
            "sfu_ops",
        ):
            assert getattr(totals, field) == sum(getattr(cost, field) for cost in singles)

    def test_empty_columns_cost_nothing(self):
        model = AggregationCycleModel(_knobs(AcceleratorConfig()), 64, is_gat=True)
        empty = np.empty(0, dtype=np.int64)
        assert model.iteration_totals(empty, empty, empty) == IterationCost(0, 0, 0, 0, 0, 0)

    def test_aggregate_subgraph_matches_segment_sum(self):
        graph = power_law_graph(40, 120, seed=61)
        rng = np.random.default_rng(61)
        weighted = rng.normal(size=(40, 8))
        undirected = graph.edge_array()
        undirected = undirected[undirected[:, 0] < undirected[:, 1]]
        accumulator = np.zeros((40, 8))
        AggregationCycleModel.aggregate_subgraph(weighted, undirected, accumulator)
        directed = graph.edge_array()
        expected = segment_sum(weighted[directed[:, 0]], directed[:, 1], 40)
        np.testing.assert_allclose(accumulator, expected, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        edges=st.integers(min_value=0, max_value=5000),
        feature=st.integers(min_value=1, max_value=256),
    )
    def test_lb_cycles_formula_property(self, edges, feature):
        config = AcceleratorConfig()
        model = AggregationCycleModel(_knobs(config), feature)
        cost = _one_iteration(model, edges)
        assert cost.addition_ops == 2 * edges * feature
        if edges:
            assert cost.compute_cycles >= cost.addition_ops // config.total_macs
