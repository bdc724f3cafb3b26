"""Tests for the miss-path hierarchy (trace, mechanisms, composition)."""

from __future__ import annotations

from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from repro.cache import (
    EVICT,
    ID_ORDER_POLICIES,
    MISS,
    MISS_PATH_MECHANISMS,
    TraceRecorder,
    VertexAccessTrace,
    check_miss_path,
    filter_misses,
    miss_cache_hits,
    miss_trace,
    simulate_policy,
    stream_hits,
    victim_hits,
)
from repro.graph import power_law_graph

#: Every non-empty subset of the mechanisms, in their listed order.
MECHANISM_SUBSETS = [
    subset
    for size in range(1, len(MISS_PATH_MECHANISMS) + 1)
    for subset in combinations(MISS_PATH_MECHANISMS, size)
]

#: The default sizing and a non-default one, so a size that never reaches
#: its mechanism shows up as a mismatch.
DEFAULT_SIZES = {
    "victim_entries": 64,
    "miss_entries": 4096,
    "stream_buffers": 4,
    "stream_depth": 16,
}
SIZINGS = {
    "defaults": {},
    "resized": {"victim_entries": 8, "miss_entries": 16, "stream_buffers": 2, "stream_depth": 32},
}


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(600, 3000, exponent=2.1, seed=91)


def _baseline(graph):
    return miss_trace("vertex_order", graph, 60)


def _trace(events):
    recorder = TraceRecorder()
    for kind, vertex in events:
        recorder.miss(vertex) if kind == MISS else recorder.evict(vertex)
    return recorder.finish()


class TestTrace:
    def test_baseline_trace_matches_counters(self, graph):
        result, trace = _baseline(graph)
        assert trace.num_misses == result.random_accesses
        assert trace.num_evictions > 0

    @pytest.mark.parametrize("policy", ID_ORDER_POLICIES)
    def test_tracing_leaves_the_simulation_unchanged(self, graph, policy):
        traced, _ = miss_trace(policy, graph, 60, bytes_per_vertex=96)
        plain = simulate_policy(policy, graph, 60, bytes_per_vertex=96)
        for field in fields(plain):
            np.testing.assert_array_equal(
                getattr(traced, field.name), getattr(plain, field.name), err_msg=field.name
            )

    def test_degree_aware_walk_has_no_miss_trace(self, graph):
        with pytest.raises(ValueError, match="never misses"):
            miss_trace("degree_aware", graph, 60)
        assert simulate_policy("degree_aware", graph, 60).random_accesses == 0

    def test_unknown_policy_rejected(self, graph):
        with pytest.raises(KeyError):
            miss_trace("belady", graph, 60)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            VertexAccessTrace(
                kinds=np.zeros(2, dtype=np.int8), vertices=np.zeros(3, dtype=np.int64)
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
        with pytest.raises(ValueError, match="victim_entries must be positive"):
            filter_misses(_trace([]), ("victim",), victim_entries=0)


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
        trace = _trace(events)
        assert stream_hits(trace, 2, 2).tolist() == [False, False, True, True, True, True]


def _mask(trace, sizes, name):
    """One mechanism's own hit mask at ``sizes``."""
    if name == "victim":
        return victim_hits(trace, sizes["victim_entries"])
    if name == "miss":
        return miss_cache_hits(trace, sizes["miss_entries"])
    return stream_hits(trace, sizes["stream_buffers"], sizes["stream_depth"])


class TestHierarchy:
    @pytest.mark.parametrize("sizing", sorted(SIZINGS))
    @pytest.mark.parametrize("subset", MECHANISM_SUBSETS, ids="+".join)
    def test_combined_is_union_of_masks(self, graph, subset, sizing):
        result, trace = _baseline(graph)
        outcome = filter_misses(trace, subset, **SIZINGS[sizing])
        sizes = {**DEFAULT_SIZES, **SIZINGS[sizing]}
        masks = {name: _mask(trace, sizes, name) for name in subset}
        union = np.zeros(trace.num_misses, dtype=bool)
        for mask in masks.values():
            union |= mask
        assert outcome.total_misses == result.random_accesses
        assert outcome.resolved == int(union.sum())
        assert [stats.name for stats in outcome.mechanisms] == list(subset)
        for stats in outcome.mechanisms:
            assert stats.hits == int(masks[stats.name].sum())

    def test_rows_include_combined_entry(self, graph):
        _, trace = _baseline(graph)
        rows = filter_misses(trace, ("victim", "stream")).rows()
        assert [row["mechanism"] for row in rows] == ["victim", "stream", "victim+stream"]

    def test_sizing_comes_from_the_arguments(self, graph):
        _, trace = _baseline(graph)
        [stats] = filter_misses(
            trace, ("stream",), stream_buffers=7, stream_depth=3
        ).mechanisms
        assert stats.hits == int(stream_hits(trace, 7, 3).sum())
        assert stats.hits != int(stream_hits(trace, 4, 16).sum())

    def test_defaults_are_every_mechanism_at_the_default_sizes(self, graph):
        _, trace = _baseline(graph)
        assert filter_misses(trace) == filter_misses(trace, MISS_PATH_MECHANISMS, **DEFAULT_SIZES)

    def test_empty_trace(self):
        outcome = filter_misses(_trace([]))
        assert outcome.total_misses == 0
        assert outcome.resolved == 0
        assert outcome.hit_rate == 0.0


class TestValidation:
    def test_unknown_names_rejected(self):
        trace = _trace([(MISS, 1)])
        with pytest.raises(ValueError, match=r"unknown mechanisms \['belady'\]"):
            filter_misses(trace, ("belady",))
        with pytest.raises(ValueError, match="unknown mechanisms"):
            filter_misses(trace, ("victim", "prefetcher-9000"))

    def test_repeated_names_rejected(self):
        # A repeated name would run its mechanism twice and list it twice.
        trace = _trace([(MISS, 1)])
        with pytest.raises(ValueError, match=r"duplicate mechanisms \['victim'\]"):
            filter_misses(trace, ("victim", "victim"))
        with pytest.raises(ValueError, match=r"duplicate mechanisms \['stream'\]"):
            filter_misses(trace, ("stream", "miss", "stream"))

    @pytest.mark.parametrize("size", sorted(DEFAULT_SIZES))
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_sizes_rejected(self, size, value):
        with pytest.raises(ValueError, match=f"{size} must be positive"):
            check_miss_path(**{size: value})
        with pytest.raises(ValueError, match=f"{size} must be positive"):
            filter_misses(_trace([]), **{size: value})

    def test_defaults_are_valid(self):
        check_miss_path()
        check_miss_path(())
