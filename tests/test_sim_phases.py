"""Tests for the Weighting/Aggregation phase simulators and result records."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.hw import AcceleratorConfig
from repro.sim import (
    PhaseResult,
    aggregation_phase_from_cache,
    run_cache_simulation,
    simulate_weighting,
)
from repro.sparse import generate_sparse_features


@pytest.fixture(scope="module")
def features():
    return generate_sparse_features(400, 256, 0.96, seed=13)


class TestPhaseResult:
    def test_totals(self):
        phase = PhaseResult(
            name="weighting",
            compute_cycles=100,
            memory_stall_cycles=20,
            sfu_cycles=5,
            preprocessing_cycles=3,
            dram_read_bytes=50,
            dram_write_bytes=25,
        )
        assert phase.total_cycles == 128
        assert phase.dram_bytes == 75

    def test_merge_adds_fields(self):
        first = PhaseResult(name="aggregation", compute_cycles=10, dram_read_bytes=5)
        second = PhaseResult(name="aggregation", compute_cycles=7, dram_write_bytes=3)
        merged = first.merge(second)
        assert merged.compute_cycles == 17
        assert merged.dram_bytes == 8


class TestSimulateWeighting:
    def test_input_layer_uses_rlc_traffic(self, features):
        config = AcceleratorConfig()
        rlc_phase, _ = simulate_weighting(config, 128, features=features, is_input_layer=True)
        dense_phase, _ = simulate_weighting(config, 128, features=features, is_input_layer=False)
        assert rlc_phase.dram_input_stream_bytes < dense_phase.dram_input_stream_bytes

    def test_mac_operations_match_schedule(self, features):
        phase, schedule = simulate_weighting(AcceleratorConfig(), 64, features=features)
        assert phase.mac_operations == schedule.total_nonzero_macs

    def test_weight_traffic_counts_whole_matrix(self, features):
        phase, _ = simulate_weighting(AcceleratorConfig(), 64, features=features)
        assert phase.dram_weight_stream_bytes == features.shape[1] * 64

    def test_output_traffic_counts_results(self, features):
        phase, _ = simulate_weighting(AcceleratorConfig(), 64, features=features)
        assert phase.dram_output_stream_bytes == features.shape[0] * 64

    def test_statistical_path_matches_explicit_shape(self):
        config = AcceleratorConfig()
        blocks = np.full((200, 16), 3, dtype=np.int64)
        phase, schedule = simulate_weighting(
            config, 32, block_nonzeros=blocks, in_features=256, is_input_layer=False
        )
        assert phase.mac_operations == blocks.sum() * 32
        assert schedule.num_passes == 2

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValueError):
            simulate_weighting(AcceleratorConfig(), 32, block_nonzeros=np.ones((4, 4)))

    def test_cycles_positive_and_bounded_below_by_ideal(self, features):
        config = AcceleratorConfig()
        phase, schedule = simulate_weighting(config, 128, features=features)
        ideal = schedule.total_nonzero_macs / config.total_macs
        assert phase.compute_cycles >= ideal
        assert phase.total_cycles > 0


class TestAggregationPhase:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph import power_law_graph

        return power_law_graph(500, 2500, seed=31)

    @staticmethod
    def _phase(graph, config, width, cache=None, is_gat=False):
        if cache is None:
            cache = run_cache_simulation(graph, config, width)
        return aggregation_phase_from_cache(cache, graph, config, width, is_gat=is_gat)

    def test_phase_prices_a_complete_simulation(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, config, 128)
        phase = self._phase(graph, config, 128, cache)
        assert phase.compute_cycles > 0
        assert cache.total_edges_processed == graph.num_edges // 2
        assert phase.dram_random_accesses == 0

    def test_gat_costs_more_than_gcn(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, config, 128)
        gcn_phase = self._phase(graph, config, 128, cache, is_gat=False)
        gat_phase = self._phase(graph, config, 128, cache, is_gat=True)
        assert gat_phase.compute_cycles > gcn_phase.compute_cycles
        assert gat_phase.sfu_operations > 0

    def test_baseline_policy_pays_random_access_penalty(self, graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        cache = run_cache_simulation(graph, config, 128)
        phase = self._phase(graph, config, 128, cache)
        assert cache.random_accesses > 0
        assert phase.dram_random_accesses > 0
        policy_phase = self._phase(graph, AcceleratorConfig(), 128)
        assert phase.total_cycles > policy_phase.total_cycles

    def test_wider_features_cost_more(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, config, 128)
        narrow = self._phase(graph, config, 32, cache)
        wide = self._phase(graph, config, 256, cache)
        assert wide.compute_cycles > narrow.compute_cycles

    def test_output_stream_traffic_reported(self, graph):
        phase = self._phase(graph, AcceleratorConfig(), 128)
        assert phase.dram_output_stream_bytes > 0
        assert phase.dram_input_stream_bytes > 0
