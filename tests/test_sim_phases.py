"""Tests for the Weighting/Aggregation phase simulators and result records."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.cache import vertex_record_bytes
from repro.graph import power_law_graph
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.dram import dram_bytes_per_cycle, random_transfer_cycles
from repro.hw.config import AggregationKnobs, CacheKnobs, WeightingKnobs, pricing_view
from repro.mapping import AggregationCycleModel, BlockProfile, schedule_weighting
from repro.sim import (
    LayerResult,
    PhaseResult,
    aggregation_phase_from_cache,
    input_buffer_capacity,
    run_cache_simulation,
    weighting_phase_from_schedule,
)
from repro.sparse import generate_sparse_features, rlc_compressed_bits


@pytest.fixture(scope="module")
def features():
    return generate_sparse_features(400, 256, 0.96, seed=13)


def _view(kind, config):
    """``config``'s ``kind`` pricing view on the default table."""
    return pricing_view(kind, config, GNNIE_TABLE)


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

    def test_phase_and_layer_results_are_frozen(self):
        # The pricing memos hand out the priced objects themselves.
        phase = PhaseResult(name="aggregation", memory_stall_cycles=4)
        layer = LayerResult(0, 8, 4, PhaseResult("weighting"), None, phase)
        with pytest.raises(FrozenInstanceError):
            phase.memory_stall_cycles = 0
        with pytest.raises(FrozenInstanceError):
            layer.aggregation = PhaseResult("aggregation")


@pytest.fixture(scope="module")
def profile(features, profile_of):
    """Block profile of ``features`` on the default 16-row array."""
    return profile_of(features, AcceleratorConfig())


def _weighting(config, out_features, features, profile, *, rlc=True):
    """Schedule and price one layer's Weighting on an explicit feature matrix.

    Input-layer features travel RLC-compressed; later layers travel dense.
    """
    num_vertices, in_features = features.shape
    schedule = schedule_weighting(
        profile, in_features, out_features, _view(WeightingKnobs, config)
    )
    value_bits = 8 * GNNIE_TABLE.bytes_per_value
    if rlc:
        input_bits = rlc_compressed_bits(features, value_bits=value_bits)
    else:
        input_bits = features.size * value_bits
    phase = weighting_phase_from_schedule(
        schedule,
        num_vertices,
        in_features,
        out_features,
        input_traffic_bits=input_bits,
        table=GNNIE_TABLE,
    )
    return phase, schedule


class TestWeightingPhase:
    def test_input_layer_uses_rlc_traffic(self, features, profile):
        config = AcceleratorConfig()
        rlc_phase, _ = _weighting(config, 128, features, profile, rlc=True)
        dense_phase, _ = _weighting(config, 128, features, profile, rlc=False)
        assert rlc_phase.dram_input_stream_bytes < dense_phase.dram_input_stream_bytes

    def test_mac_operations_match_schedule(self, features, profile):
        phase, schedule = _weighting(AcceleratorConfig(), 64, features, profile)
        assert phase.mac_operations == schedule.total_nonzero_macs

    def test_weight_traffic_counts_whole_matrix(self, features, profile):
        phase, _ = _weighting(AcceleratorConfig(), 64, features, profile)
        assert phase.dram_weight_stream_bytes == features.shape[1] * 64

    def test_output_traffic_counts_results(self, features, profile):
        phase, _ = _weighting(AcceleratorConfig(), 64, features, profile)
        assert phase.dram_output_stream_bytes == features.shape[0] * 64

    def test_statistical_path_matches_explicit_shape(self):
        config = AcceleratorConfig()
        blocks = np.full((200, 16), 3, dtype=np.int64)
        schedule = schedule_weighting(
            BlockProfile.from_counts(blocks), 256, 32, _view(WeightingKnobs, config)
        )
        phase = weighting_phase_from_schedule(
            schedule, 200, 256, 32, input_traffic_bits=200 * 256 * 8, table=GNNIE_TABLE
        )
        assert phase.mac_operations == blocks.sum() * 32
        assert schedule.num_passes == 2

    def test_cycles_positive_and_bounded_below_by_ideal(self, features, profile):
        config = AcceleratorConfig()
        phase, schedule = _weighting(config, 128, features, profile)
        ideal = schedule.total_nonzero_macs / config.total_macs
        assert phase.compute_cycles >= ideal
        assert phase.total_cycles > 0

    def test_input_features_stream_once_per_pass(self, features, profile):
        config = AcceleratorConfig()
        phase, schedule = _weighting(config, 128, features, profile)
        input_bytes = rlc_compressed_bits(features, value_bits=8) // 8
        assert schedule.num_passes == 8
        assert phase.dram_input_stream_bytes == input_bytes * schedule.num_passes

    @staticmethod
    def _price_input_traffic(features, profile, input_traffic_bits):
        """One input layer's Weighting, its input traffic set explicitly."""
        num_vertices, in_features = features.shape
        schedule = schedule_weighting(
            profile, in_features, 128, _view(WeightingKnobs, AcceleratorConfig())
        )
        phase = weighting_phase_from_schedule(
            schedule,
            num_vertices,
            in_features,
            128,
            input_traffic_bits=input_traffic_bits,
            table=GNNIE_TABLE,
        )
        return phase, schedule

    @pytest.mark.parametrize("input_traffic_bits", [8 * 1024, 8 * 10**8], ids=["light", "heavy"])
    def test_streaming_counts_the_first_fill_and_exposes_nothing(
        self, features, profile, input_traffic_bits
    ):
        # Light traffic fetches a pass faster than the pass computes, heavy
        # traffic slower; either way exposure is the layer pass's decision.
        phase, schedule = self._price_input_traffic(features, profile, input_traffic_bits)
        bytes_per_cycle = dram_bytes_per_cycle(GNNIE_TABLE)
        weight_bytes = features.shape[1] * GNNIE_TABLE.num_cols * GNNIE_TABLE.bytes_per_value
        per_pass_fetch = int(np.ceil(input_traffic_bits // 8 / bytes_per_cycle)) + int(
            np.ceil(weight_bytes / bytes_per_cycle)
        )
        heavy = input_traffic_bits > 8 * 1024
        assert (per_pass_fetch > schedule.cycles_per_pass) == heavy
        assert phase.streaming_memory_cycles == per_pass_fetch * (schedule.num_passes + 1)
        assert phase.memory_stall_cycles == 0

    def test_preprocessing_charges_flexible_mac_binning(self, features, profile):
        config = AcceleratorConfig()
        phase, schedule = _weighting(config, 64, features, profile)
        operations = schedule.assignment.preprocessing_operations
        assert operations > 0
        # The binning classifies 32 block records per cycle.
        assert phase.preprocessing_cycles == -(-operations // 32)
        unbinned, _ = _weighting(replace(config, enable_flexible_mac=False), 64, features, profile)
        assert unbinned.preprocessing_cycles == 0


class TestInputBufferCapacity:
    @pytest.fixture(scope="class")
    def graph(self):
        return power_law_graph(300, 1200, seed=21)

    def test_capacity_is_buffer_over_record_size(self, graph):
        config = AcceleratorConfig(input_buffer_bytes=64 * 1024)
        knobs = _view(CacheKnobs, config)
        capacity, record_bytes = input_buffer_capacity(graph, knobs, 128)
        assert record_bytes == vertex_record_bytes(128, graph.average_degree(), knobs)
        assert capacity == 64 * 1024 // record_bytes

    def test_at_least_one_vertex(self, graph):
        config = AcceleratorConfig(input_buffer_bytes=16)
        capacity, record_bytes = input_buffer_capacity(graph, _view(CacheKnobs, config), 4096)
        assert record_bytes > 16
        assert capacity == 1

    def test_denser_graph_fits_fewer_vertices(self):
        # Each record carries its neighbor list, so average degree costs space.
        config = AcceleratorConfig(input_buffer_bytes=1 << 20)
        sparse = power_law_graph(300, 600, seed=21)
        dense = power_law_graph(300, 6000, seed=21)
        assert dense.average_degree() > sparse.average_degree()
        dense_capacity = input_buffer_capacity(dense, _view(CacheKnobs, config), 64)[0]
        assert dense_capacity < input_buffer_capacity(sparse, _view(CacheKnobs, config), 64)[0]

    def test_auto_sizing_uses_the_large_dataset_buffer(self, graph):
        explicit = AcceleratorConfig(input_buffer_bytes=512 * 1024)
        auto = _view(CacheKnobs, AcceleratorConfig())
        assert input_buffer_capacity(graph, auto, 128) == input_buffer_capacity(
            graph, _view(CacheKnobs, explicit), 128
        )

    def test_invalid_feature_length(self, graph):
        with pytest.raises(ValueError):
            input_buffer_capacity(graph, _view(CacheKnobs, AcceleratorConfig()), 0)


class TestAggregationPhase:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph import power_law_graph

        return power_law_graph(500, 2500, seed=31)

    @staticmethod
    def _phase(graph, config, width, cache=None, is_gat=False):
        if cache is None:
            cache = run_cache_simulation(graph, _view(CacheKnobs, config), width)
        return aggregation_phase_from_cache(
            cache, graph, _view(AggregationKnobs, config), width, is_gat=is_gat
        )

    def test_phase_prices_a_complete_simulation(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, _view(CacheKnobs, config), 128)
        phase = self._phase(graph, config, 128, cache)
        assert phase.compute_cycles > 0
        assert cache.total_edges_processed == graph.num_edges // 2
        assert phase.dram_random_accesses == 0

    def test_gat_costs_more_than_gcn(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, _view(CacheKnobs, config), 128)
        gcn_phase = self._phase(graph, config, 128, cache, is_gat=False)
        gat_phase = self._phase(graph, config, 128, cache, is_gat=True)
        assert gat_phase.compute_cycles > gcn_phase.compute_cycles
        assert gat_phase.sfu_operations > 0

    def test_baseline_policy_pays_random_access_penalty(self, graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        cache = run_cache_simulation(graph, _view(CacheKnobs, config), 128)
        phase = self._phase(graph, config, 128, cache)
        assert cache.random_accesses > 0
        assert phase.dram_random_accesses > 0
        policy_phase = self._phase(graph, AcceleratorConfig(), 128)
        assert phase.total_cycles > policy_phase.total_cycles

    def test_wider_features_cost_more(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, _view(CacheKnobs, config), 128)
        narrow = self._phase(graph, config, 32, cache)
        wide = self._phase(graph, config, 256, cache)
        assert wide.compute_cycles > narrow.compute_cycles

    def test_output_stream_traffic_reported(self, graph):
        phase = self._phase(graph, AcceleratorConfig(), 128)
        assert phase.dram_output_stream_bytes > 0
        assert phase.dram_input_stream_bytes > 0

    def test_degree_binning_charged_on_the_phase(self, graph):
        phase = self._phase(graph, AcceleratorConfig(), 64)
        assert GNNIE_TABLE.degree_binning_ops_per_cycle == 8
        assert phase.preprocessing_cycles == -(-graph.num_vertices // 8)

    def test_no_binning_without_degree_aware_caching(self, graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        assert self._phase(graph, config, 64).preprocessing_cycles == 0

    @pytest.mark.parametrize("is_gat", [False, True], ids=["gcn", "gat"])
    def test_compute_prices_the_cache_iteration_columns(self, graph, is_gat):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, _view(CacheKnobs, config), 64)
        phase = self._phase(graph, config, 64, cache, is_gat=is_gat)
        model = AggregationCycleModel(_view(AggregationKnobs, config), 64, is_gat=is_gat)
        totals = model.iteration_totals(
            cache.edges_processed, cache.max_edges_per_vertex, cache.resident_vertices
        )
        finalize = model.finalization_cost(graph.num_vertices)
        assert phase.compute_cycles == totals.compute_cycles
        assert phase.sfu_cycles == totals.sfu_cycles + finalize.sfu_cycles
        assert phase.mac_operations == totals.addition_ops + totals.multiply_ops
        assert phase.sfu_operations == totals.sfu_ops + finalize.sfu_ops

    def test_degree_aware_caching_prices_no_stall(self, graph):
        phase = self._phase(graph, AcceleratorConfig(), 128)
        assert phase.dram_random_accesses == 0
        assert phase.streaming_memory_cycles > 0
        assert phase.memory_stall_cycles == 0

    def test_random_access_cycles_are_the_whole_stall(self, graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        cache = run_cache_simulation(graph, _view(CacheKnobs, config), 128)
        phase = self._phase(graph, config, 128, cache)
        random_cycles = random_transfer_cycles(
            GNNIE_TABLE, cache.random_accesses, bytes_per_access=128
        )
        assert random_cycles > 0
        assert phase.streaming_memory_cycles > 0
        assert phase.memory_stall_cycles == random_cycles

    def test_small_output_buffer_spills_partial_sums(self, graph):
        roomy = AcceleratorConfig()
        cramped = replace(roomy, output_buffer_bytes=1024)
        cache = run_cache_simulation(graph, _view(CacheKnobs, roomy), 128)
        spill_free = self._phase(graph, roomy, 128, cache)
        spilling = self._phase(graph, cramped, 128, cache)
        final_write = graph.num_vertices * 128
        assert spill_free.dram_write_bytes == cache.alpha_writeback_bytes + final_write
        extra_writes = spilling.dram_write_bytes - spill_free.dram_write_bytes
        assert extra_writes > 0
        # Every spilled partial sum is read back.
        assert spilling.dram_read_bytes - spill_free.dram_read_bytes == extra_writes
