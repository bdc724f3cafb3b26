"""Tests for the miss-path hierarchy (trace, mechanisms, composition)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.cache import (
    EVICT,
    MISS,
    TraceRecorder,
    VertexAccessTrace,
    filter_misses,
    miss_cache_hits,
    simulate_policy,
    stream_hits,
    victim_hits,
)
from repro.graph import power_law_graph
from repro.hw.config import MISS_PATH_MECHANISMS, AcceleratorConfig

#: Every non-empty subset of the mechanisms, in configuration order.
MECHANISM_SUBSETS = [
    subset
    for size in range(1, len(MISS_PATH_MECHANISMS) + 1)
    for subset in combinations(MISS_PATH_MECHANISMS, size)
]

#: The default sizing and a non-default one, so a knob that never reaches
#: its mechanism shows up as a mismatch.
SIZINGS = {
    "defaults": {},
    "resized": {
        "victim_cache_entries": 8,
        "miss_cache_entries": 16,
        "stream_buffer_count": 2,
        "stream_buffer_depth": 32,
    },
}


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
        for subset in MECHANISM_SUBSETS:
            outcome = filter_misses(result.trace, AcceleratorConfig().with_miss_path(*subset))
            assert outcome.resolved == 0, subset
            assert outcome.prefetch_resolved == 0, subset

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
        assert victim_hits(trace, 4).tolist() == [True]

    def test_swap_back_removes_entry(self):
        # Second miss on the same vertex misses again: the record moved back
        # into the input buffer on the first hit.
        trace = _trace([(EVICT, 3), (MISS, 3), (MISS, 3)])
        assert victim_hits(trace, 4).tolist() == [True, False]

    def test_lru_capacity(self):
        trace = _trace([(EVICT, 1), (EVICT, 2), (EVICT, 3), (MISS, 1), (MISS, 3)])
        # Two entries: eviction of 3 displaces 1 (oldest), keeps {2, 3}.
        assert victim_hits(trace, 2).tolist() == [False, True]

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(victim_cache_entries=0)


class TestMissCache:
    def test_repeat_miss_hits(self):
        trace = _trace([(MISS, 5), (MISS, 5)])
        assert miss_cache_hits(trace, 4).tolist() == [False, True]

    def test_capacity_forgets_oldest_tag(self):
        trace = _trace([(MISS, 1), (MISS, 2), (MISS, 3), (MISS, 1)])
        # Two tags: by the time 1 re-misses, its tag was displaced by 2, 3.
        assert miss_cache_hits(trace, 2).tolist() == [False, False, False, False]

    def test_ignores_evictions(self):
        trace = _trace([(EVICT, 5), (MISS, 5)])
        assert miss_cache_hits(trace, 4).tolist() == [False]


class TestStreamBuffers:
    def test_sequential_run_hits(self):
        trace = _trace([(MISS, 4), (MISS, 5), (MISS, 6)])
        assert stream_hits(trace, 1, 4).tolist() == [False, True, True]

    def test_depth_bounds_window(self):
        trace = _trace([(MISS, 0), (MISS, 9)])
        assert stream_hits(trace, 1, 4).tolist() == [False, False]
        assert stream_hits(trace, 1, 9).tolist() == [False, True]

    def test_backward_jump_misses(self):
        trace = _trace([(MISS, 5), (MISS, 4)])
        assert stream_hits(trace, 2, 8).tolist() == [False, False]

    def test_multiple_buffers_track_interleaved_streams(self):
        # Two interleaved sequential streams; one buffer loses the first
        # stream every time the second allocates, two buffers keep both.
        events = [(MISS, 0), (MISS, 8), (MISS, 1), (MISS, 9), (MISS, 2), (MISS, 10)]
        trace = _trace(events)
        one = stream_hits(trace, 1, 2)
        two = stream_hits(trace, 2, 2)
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
        assert stream_hits(trace, 2, 2).tolist() == [False, False, True, True, True, True]

    def test_uses_stream_layout_not_vertex_ids(self):
        # Vertices 7 then 3 look non-sequential by id, but the stream order
        # places them adjacently, so the second miss is a prefetch hit.
        order = np.array([7, 3, 0, 1, 2, 4, 5, 6], dtype=np.int64)
        trace = _trace([(MISS, 7), (MISS, 3)], num_vertices=8, stream_order=order)
        assert stream_hits(trace, 1, 2).tolist() == [False, True]


def _mask(trace, config, name):
    """One mechanism's own hit mask, sized by ``config``."""
    if name == "victim":
        return victim_hits(trace, config.victim_cache_entries)
    if name == "miss":
        return miss_cache_hits(trace, config.miss_cache_entries)
    return stream_hits(trace, config.stream_buffer_count, config.stream_buffer_depth)


class TestHierarchy:
    @pytest.mark.parametrize("sizing", sorted(SIZINGS))
    @pytest.mark.parametrize("subset", MECHANISM_SUBSETS, ids="+".join)
    def test_combined_is_union_of_masks(self, graph, subset, sizing):
        result = _baseline(graph)
        config = AcceleratorConfig().with_miss_path(*subset, **SIZINGS[sizing])
        outcome = filter_misses(result.trace, config)
        masks = {name: _mask(result.trace, config, name) for name in subset}
        union = np.zeros(result.trace.num_misses, dtype=bool)
        for mask in masks.values():
            union |= mask
        assert outcome.resolved == int(union.sum())
        assert outcome.dram_random_accesses == result.random_accesses - outcome.resolved
        assert [stats.name for stats in outcome.mechanisms] == list(subset)
        for stats in outcome.mechanisms:
            assert stats.hits == int(masks[stats.name].sum())
        # Only misses no on-chip structure holds count as prefetches.
        on_chip = np.zeros_like(union)
        for name in subset:
            if name != "stream":
                on_chip |= masks[name]
        assert outcome.prefetch_resolved == int((union & ~on_chip).sum())

    def test_rows_include_combined_entry(self, graph):
        result = _baseline(graph)
        outcome = filter_misses(
            result.trace, AcceleratorConfig().with_miss_path("victim", "stream")
        )
        rows = outcome.rows()
        assert [row["mechanism"] for row in rows] == ["victim", "stream", "victim+stream"]

    def test_sizing_comes_from_config(self, graph):
        trace = _baseline(graph).trace
        cfg = AcceleratorConfig(
            miss_path_mechanisms=("stream",), stream_buffer_count=7, stream_buffer_depth=3
        )
        [stats] = filter_misses(trace, cfg).mechanisms
        assert stats.hits == int(stream_hits(trace, 7, 3).sum())
        assert stats.hits != int(stream_hits(trace, 4, 16).sum())

    def test_stream_hits_counted_as_prefetch_traffic(self, graph):
        result = _baseline(graph)
        stream_only = filter_misses(result.trace, AcceleratorConfig().with_miss_path("stream"))
        # Every stream-buffer-resolved miss was served by a DRAM prefetch.
        assert stream_only.prefetch_resolved == stream_only.resolved
        assert stream_only.sequential_prefetch_bytes == (
            stream_only.resolved * result.trace.bytes_per_vertex
        )
        combined = filter_misses(
            result.trace, AcceleratorConfig().with_miss_path(*MISS_PATH_MECHANISMS)
        )
        # On-chip hits (victim/miss cache) take priority over prefetches.
        assert combined.prefetch_resolved <= stream_only.resolved
        on_chip_only = filter_misses(
            result.trace, AcceleratorConfig().with_miss_path("victim", "miss")
        )
        assert on_chip_only.prefetch_resolved == 0
        assert on_chip_only.prefetch_fill_records == 0

    def test_stream_fill_traffic_reported(self, graph):
        result = _baseline(graph)
        config = AcceleratorConfig().with_miss_path("stream")
        outcome = filter_misses(result.trace, config)
        [stats] = outcome.mechanisms
        allocations = stats.accesses - stats.hits
        # depth records per allocation, one slide-fetch per hit — the full
        # (mostly wasted) fill bandwidth that hit counts alone hide.
        assert outcome.prefetch_fill_records == (
            allocations * config.stream_buffer_depth + stats.hits
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
        outcome = filter_misses(trace, AcceleratorConfig().with_miss_path(*MISS_PATH_MECHANISMS))
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

    def test_phase_splits_random_accesses_into_net_and_avoided(self, graph):
        from repro.sim import run_cache_simulation
        from repro.sim.aggregation_sim import aggregation_phase_from_cache

        cfg = AcceleratorConfig(enable_degree_aware_caching=False).with_miss_path(
            "victim", "miss", "stream"
        )
        result = run_cache_simulation(graph, cfg, 64)
        phase = aggregation_phase_from_cache(result, graph, cfg, 64)
        # Every access either reaches DRAM or is avoided by the hierarchy.
        assert phase.dram_random_accesses_avoided > 0
        assert (
            phase.dram_random_accesses + phase.dram_random_accesses_avoided
            == result.random_accesses
        )
