"""Tests for the miss-path hierarchy (trace, mechanisms, composition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    EVICT,
    MISS,
    MECHANISM_REGISTRY,
    MissCache,
    MissPathConfig,
    MissPathHierarchy,
    MissPathMechanism,
    StreamBufferArray,
    TraceRecorder,
    VertexAccessTrace,
    VictimCache,
    build_mechanism,
    mechanism_names,
    simulate_policy,
)
from repro.graph import power_law_graph
from repro.hw.config import AcceleratorConfig


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(600, 3000, exponent=2.1, seed=91)


def _baseline(graph, collect_trace=True):
    return simulate_policy("vertex_order", graph, 60, collect_trace=collect_trace)


def _trace(events, num_vertices=16, stream_order=None):
    recorder = TraceRecorder(num_vertices=num_vertices, stream_order=stream_order)
    for kind, vertex in events:
        recorder.miss(vertex) if kind == MISS else recorder.evict(vertex)
    return recorder.finish()


class TestTrace:
    def test_baseline_trace_matches_counters(self, graph):
        result = _baseline(graph)
        assert result.trace is not None
        assert result.trace.num_misses == result.random_accesses
        assert result.trace.num_evictions > 0
        assert result.trace.policy == "vertex_order"

    def test_trace_off_by_default(self, graph):
        assert _baseline(graph, collect_trace=False).trace is None
        assert simulate_policy("lru", graph, 60).trace is None

    def test_degree_aware_trace_has_no_misses(self, graph):
        result = simulate_policy("degree_aware", graph, 60, collect_trace=True)
        assert result.trace is not None
        assert result.trace.num_misses == 0
        assert result.trace.num_evictions > 0

    def test_stream_positions_invert_stream_order(self):
        order = np.array([2, 0, 1], dtype=np.int64)
        trace = _trace([(MISS, 0)], num_vertices=3, stream_order=order)
        # vertex 2 is first in the stream, vertex 0 second, vertex 1 third.
        assert trace.stream_positions.tolist() == [1, 2, 0]

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            VertexAccessTrace(
                kinds=np.zeros(2, dtype=np.int8),
                vertices=np.zeros(3, dtype=np.int64),
                num_vertices=4,
                stream_positions=np.arange(4),
            )


class TestVictimCache:
    def test_hit_after_eviction(self):
        trace = _trace([(EVICT, 3), (MISS, 3)])
        assert VictimCache(entries=4).hit_mask(trace).tolist() == [True]

    def test_swap_back_removes_entry(self):
        # Second miss on the same vertex misses again: the record moved back
        # into the input buffer on the first hit.
        trace = _trace([(EVICT, 3), (MISS, 3), (MISS, 3)])
        assert VictimCache(entries=4).hit_mask(trace).tolist() == [True, False]

    def test_lru_capacity(self):
        trace = _trace([(EVICT, 1), (EVICT, 2), (EVICT, 3), (MISS, 1), (MISS, 3)])
        # Two entries: eviction of 3 displaces 1 (oldest), keeps {2, 3}.
        assert VictimCache(entries=2).hit_mask(trace).tolist() == [False, True]

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            VictimCache(entries=0)


class TestMissCache:
    def test_repeat_miss_hits(self):
        trace = _trace([(MISS, 5), (MISS, 5)])
        assert MissCache(entries=4).hit_mask(trace).tolist() == [False, True]

    def test_capacity_forgets_oldest_tag(self):
        trace = _trace([(MISS, 1), (MISS, 2), (MISS, 3), (MISS, 1)])
        # Two tags: by the time 1 re-misses, its tag was displaced by 2, 3.
        assert MissCache(entries=2).hit_mask(trace).tolist() == [
            False,
            False,
            False,
            False,
        ]

    def test_ignores_evictions(self):
        trace = _trace([(EVICT, 5), (MISS, 5)])
        assert MissCache(entries=4).hit_mask(trace).tolist() == [False]


class TestStreamBuffers:
    def test_sequential_run_hits(self):
        trace = _trace([(MISS, 4), (MISS, 5), (MISS, 6)])
        mask = StreamBufferArray(count=1, depth=4).hit_mask(trace)
        assert mask.tolist() == [False, True, True]

    def test_depth_bounds_window(self):
        trace = _trace([(MISS, 0), (MISS, 9)])
        assert StreamBufferArray(count=1, depth=4).hit_mask(trace).tolist() == [
            False,
            False,
        ]
        assert StreamBufferArray(count=1, depth=9).hit_mask(trace).tolist() == [
            False,
            True,
        ]

    def test_backward_jump_misses(self):
        trace = _trace([(MISS, 5), (MISS, 4)])
        assert StreamBufferArray(count=2, depth=8).hit_mask(trace).tolist() == [
            False,
            False,
        ]

    def test_multiple_buffers_track_interleaved_streams(self):
        # Two interleaved sequential streams; one buffer loses the first
        # stream every time the second allocates, two buffers keep both.
        events = [(MISS, 0), (MISS, 8), (MISS, 1), (MISS, 9), (MISS, 2), (MISS, 10)]
        trace = _trace(events)
        one = StreamBufferArray(count=1, depth=2).hit_mask(trace)
        two = StreamBufferArray(count=2, depth=2).hit_mask(trace)
        assert one.sum() < two.sum()
        assert two.tolist() == [False, False, True, True, True, True]

    def test_busy_stream_does_not_evict_idle_buffer(self):
        # Three consecutive hits on the first stream must not displace the
        # buffer tracking the second stream: hits slide their own buffer,
        # only misses allocate (LRU).
        events = [
            (MISS, 0),
            (MISS, 100),
            (MISS, 1),
            (MISS, 2),
            (MISS, 3),
            (MISS, 101),
        ]
        trace = _trace(events, num_vertices=128)
        mask = StreamBufferArray(count=2, depth=2).hit_mask(trace)
        assert mask.tolist() == [False, False, True, True, True, True]

    def test_uses_stream_layout_not_vertex_ids(self):
        # Vertices 7 then 3 look non-sequential by id, but the stream order
        # places them adjacently, so the second miss is a prefetch hit.
        order = np.array([7, 3, 0, 1, 2, 4, 5, 6], dtype=np.int64)
        trace = _trace([(MISS, 7), (MISS, 3)], num_vertices=8, stream_order=order)
        assert StreamBufferArray(count=1, depth=2).hit_mask(trace).tolist() == [
            False,
            True,
        ]


class TestRegistry:
    def test_known_mechanisms(self):
        assert set(mechanism_names()) == {"victim", "miss", "stream"}

    def test_plugin_mechanism_flows_through_accelerator_config(self):
        # repro.hw defers mechanism-name validation to the live registry, so
        # a runtime-registered mechanism is usable via AcceleratorConfig.
        from repro.cache.mechanisms import register_mechanism

        @register_mechanism("always-hit")
        class AlwaysHit(MissPathMechanism):
            def hit_mask(self, trace):
                return np.ones(trace.num_misses, dtype=bool)

        try:
            cfg = AcceleratorConfig(miss_path_mechanisms=("always-hit",))
            hierarchy = MissPathHierarchy.from_accelerator_config(cfg)
            trace = _trace([(MISS, 1), (MISS, 2)])
            assert hierarchy.filter(trace).resolved == 2
        finally:
            MECHANISM_REGISTRY.pop("always-hit", None)

    def test_build_mechanism(self):
        mechanism = build_mechanism("victim", entries=8)
        assert isinstance(mechanism, VictimCache)
        assert mechanism.entries == 8

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_mechanism("prefetcher-9000")
        with pytest.raises(ValueError):
            MissPathConfig(mechanisms=("prefetcher-9000",))
        # The accelerator config accepts any tuple (plug-ins may register
        # later); the error surfaces when the hierarchy is built from it.
        cfg = AcceleratorConfig(miss_path_mechanisms=("prefetcher-9000",))
        with pytest.raises(ValueError):
            MissPathHierarchy.from_accelerator_config(cfg)


class TestHierarchy:
    def test_combined_is_union_of_masks(self, graph):
        result = _baseline(graph)
        config = MissPathConfig(mechanisms=("victim", "miss", "stream"))
        hierarchy = MissPathHierarchy(config)
        outcome = hierarchy.filter(result.trace)
        masks = [
            build_mechanism(name, **config.mechanism_kwargs(name)).hit_mask(result.trace)
            for name in config.mechanisms
        ]
        union = np.zeros(result.trace.num_misses, dtype=bool)
        for mask in masks:
            union |= mask
        assert outcome.resolved == int(union.sum())
        assert outcome.dram_random_accesses == result.random_accesses - outcome.resolved
        by_name = {stats.name: stats for stats in outcome.mechanisms}
        for name, mask in zip(config.mechanisms, masks):
            assert by_name[name].hits == int(mask.sum())

    def test_rows_include_combined_entry(self, graph):
        result = _baseline(graph)
        outcome = MissPathHierarchy(
            MissPathConfig(mechanisms=("victim", "stream"))
        ).filter(result.trace)
        rows = outcome.rows()
        assert [row["mechanism"] for row in rows] == ["victim", "stream", "victim+stream"]

    def test_from_accelerator_config(self):
        cfg = AcceleratorConfig(
            miss_path_mechanisms=("stream",), stream_buffer_count=7, stream_buffer_depth=3
        )
        hierarchy = MissPathHierarchy.from_accelerator_config(cfg)
        [mechanism] = hierarchy.mechanisms
        assert isinstance(mechanism, StreamBufferArray)
        assert mechanism.count == 7 and mechanism.depth == 3

    def test_stream_hits_counted_as_prefetch_traffic(self, graph):
        result = _baseline(graph)
        stream_only = MissPathHierarchy(
            MissPathConfig(mechanisms=("stream",))
        ).filter(result.trace)
        # Every stream-buffer-resolved miss was served by a DRAM prefetch.
        assert stream_only.prefetch_resolved == stream_only.resolved
        assert stream_only.sequential_prefetch_bytes == (
            stream_only.resolved * result.trace.bytes_per_vertex
        )
        combined = MissPathHierarchy(
            MissPathConfig(mechanisms=("victim", "miss", "stream"))
        ).filter(result.trace)
        # On-chip hits (victim/miss cache) take priority over prefetches.
        assert combined.prefetch_resolved <= stream_only.resolved
        on_chip_only = MissPathHierarchy(
            MissPathConfig(mechanisms=("victim", "miss"))
        ).filter(result.trace)
        assert on_chip_only.prefetch_resolved == 0
        assert on_chip_only.prefetch_fill_records == 0

    def test_stream_fill_traffic_reported(self, graph):
        result = _baseline(graph)
        config = MissPathConfig(mechanisms=("stream",))
        outcome = MissPathHierarchy(config).filter(result.trace)
        [stats] = outcome.mechanisms
        allocations = stats.accesses - stats.hits
        # depth records per allocation, one slide-fetch per hit — the full
        # (mostly wasted) fill bandwidth that hit counts alone hide.
        assert outcome.prefetch_fill_records == (
            allocations * config.stream_depth + stats.hits
        )
        assert outcome.prefetch_fill_records > outcome.prefetch_resolved

    def test_total_dram_bytes_uses_net_random_traffic(self, graph):
        from repro.sim import run_cache_simulation

        plain_cfg = AcceleratorConfig(enable_degree_aware_caching=False)
        plain = run_cache_simulation(graph, plain_cfg, 64)
        filtered = run_cache_simulation(
            graph, plain_cfg.with_miss_path("victim", "miss", "stream"), 64
        )
        assert filtered.total_dram_accesses == (
            filtered.vertex_fetches + filtered.net_random_accesses
        )
        assert filtered.total_dram_accesses < plain.total_dram_accesses
        # Stream-buffer hits convert random bytes to sequential prefetch
        # bytes one-for-one; only on-chip (victim/miss-cache) hits remove
        # bytes outright.
        on_chip_hits = filtered.miss_path.resolved - filtered.miss_path.prefetch_resolved
        record_bytes = filtered.trace.bytes_per_vertex
        assert filtered.total_dram_bytes == (
            plain.total_dram_bytes - on_chip_hits * record_bytes
        )

    def test_empty_trace(self):
        trace = _trace([])
        outcome = MissPathHierarchy(
            MissPathConfig(mechanisms=("victim", "miss", "stream"))
        ).filter(trace)
        assert outcome.total_misses == 0
        assert outcome.resolved == 0
        assert outcome.hit_rate == 0.0


class TestSimulationIntegration:
    def test_run_cache_simulation_attaches_miss_path(self, graph):
        from repro.sim import run_cache_simulation

        cfg = AcceleratorConfig(
            enable_degree_aware_caching=False,
            miss_path_mechanisms=("victim", "miss", "stream"),
        )
        result = run_cache_simulation(graph, cfg, 64)
        assert result.miss_path is not None
        assert result.random_accesses_avoided > 0
        assert result.net_random_accesses == (
            result.random_accesses - result.random_accesses_avoided
        )

    def test_phase_charges_net_random_accesses(self, graph):
        from repro.sim import run_cache_simulation
        from repro.sim.aggregation_sim import aggregation_phase_from_cache

        plain_cfg = AcceleratorConfig(enable_degree_aware_caching=False)
        mp_cfg = plain_cfg.with_miss_path("victim", "miss", "stream")
        plain = run_cache_simulation(graph, plain_cfg, 64)
        filtered = run_cache_simulation(graph, mp_cfg, 64)
        phase_plain = aggregation_phase_from_cache(plain, graph, plain_cfg, 64)
        phase_filtered = aggregation_phase_from_cache(filtered, graph, mp_cfg, 64)
        avoided = filtered.random_accesses_avoided
        assert phase_filtered.dram_random_accesses_avoided == avoided
        assert (
            phase_filtered.dram_random_accesses
            == phase_plain.dram_random_accesses - avoided
        )
        # Stream-buffer hits keep their bytes (as sequential prefetch); only
        # on-chip hits remove bytes — but every avoided access skips the
        # random-access penalty, so stall cycles strictly improve.
        on_chip_hits = filtered.miss_path.resolved - filtered.miss_path.prefetch_resolved
        assert phase_filtered.dram_read_bytes == (
            phase_plain.dram_read_bytes - on_chip_hits * filtered.trace.bytes_per_vertex
        )
        assert phase_filtered.memory_stall_cycles < phase_plain.memory_stall_cycles

    def test_dram_model_accounts_avoided_accesses(self):
        from repro.hw.dram import HBMModel

        dram = HBMModel()
        dram.random_transfer_cycles(10)
        dram.note_avoided_random_accesses(4)
        assert dram.stats.random_accesses == 10
        assert dram.stats.random_accesses_avoided == 4
        assert dram.stats.random_accesses_issued == 14
