"""Tests for the miss-path ablation (events, filters, table rows)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from repro.cache import (
    EVICT,
    ID_ORDER_POLICIES,
    MISS,
    MISS_PATH_MECHANISMS,
    miss_cache_hits,
    miss_path_ablation_rows,
    miss_trace,
    simulate_policy,
    stream_hits,
    victim_hits,
)
from repro.graph import CSRGraph, power_law_graph
from repro.hw import GNNIE_TABLE

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

#: The input buffer's capacity in vertex records.
CAPACITY = 60


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(600, 3000, exponent=2.1, seed=91)


def _baseline(graph):
    return miss_trace("vertex_order", graph, CAPACITY)


def _events(events):
    """``(kinds, vertices)`` arrays of ``(kind, vertex)`` pairs."""
    kinds = np.array([kind for kind, _ in events], dtype=np.int8)
    vertices = np.array([vertex for _, vertex in events], dtype=np.int64)
    return kinds, vertices


class TestTrace:
    def test_baseline_trace_matches_counters(self, graph):
        result, kinds, vertices = _baseline(graph)
        assert kinds.dtype == np.int8 and vertices.dtype == np.int64
        assert kinds.shape == vertices.shape
        assert np.count_nonzero(kinds == MISS) == result.random_accesses
        assert np.count_nonzero(kinds == EVICT) > 0

    @pytest.mark.parametrize("policy", ID_ORDER_POLICIES)
    def test_tracing_leaves_the_simulation_unchanged(self, graph, policy):
        traced, _, _ = miss_trace(policy, graph, 60, bytes_per_vertex=96)
        plain = simulate_policy(
            policy, graph, 60, bytes_per_vertex=96, index_bytes=GNNIE_TABLE.index_bytes
        )
        for field in fields(plain):
            np.testing.assert_array_equal(
                getattr(traced, field.name), getattr(plain, field.name), err_msg=field.name
            )

    def test_degree_aware_walk_has_no_miss_trace(self, graph):
        with pytest.raises(ValueError, match="never misses"):
            miss_trace("degree_aware", graph, 60)
        walk = simulate_policy("degree_aware", graph, 60, index_bytes=GNNIE_TABLE.index_bytes)
        assert walk.random_accesses == 0

    def test_unknown_policy_rejected(self, graph):
        with pytest.raises(KeyError):
            miss_trace("belady", graph, 60)


class TestVictimCache:
    def test_hit_after_eviction(self):
        assert victim_hits(*_events([(EVICT, 3), (MISS, 3)]), 4).tolist() == [True]

    def test_swap_back_removes_entry(self):
        # Second miss on the same vertex misses again: the record moved back
        # into the input buffer on the first hit.
        events = _events([(EVICT, 3), (MISS, 3), (MISS, 3)])
        assert victim_hits(*events, 4).tolist() == [True, False]

    def test_lru_capacity(self):
        events = _events([(EVICT, 1), (EVICT, 2), (EVICT, 3), (MISS, 1), (MISS, 3)])
        # Two entries: eviction of 3 displaces 1 (oldest), keeps {2, 3}.
        assert victim_hits(*events, 2).tolist() == [False, True]

    def test_invalid_entries(self):
        with pytest.raises(ValueError, match="victim_entries must be positive"):
            miss_path_ablation_rows(None, CAPACITY, mechanisms=("victim",), victim_entries=0)


class TestMissCache:
    def test_repeat_miss_hits(self):
        assert miss_cache_hits(np.array([5, 5]), 4).tolist() == [False, True]

    def test_capacity_forgets_oldest_tag(self):
        # Two tags: by the time 1 re-misses, its tag was displaced by 2, 3.
        misses = np.array([1, 2, 3, 1])
        assert miss_cache_hits(misses, 2).tolist() == [False, False, False, False]

    def test_ignores_evictions(self):
        # The miss cache reads the misses alone: evicting the vertex that
        # misses next leaves no tag.
        kinds, vertices = _events([(EVICT, 5), (MISS, 5)])
        assert miss_cache_hits(vertices[kinds == MISS], 4).tolist() == [False]


class TestStreamBuffers:
    def test_sequential_run_hits(self):
        assert stream_hits(np.array([4, 5, 6]), 1, 4).tolist() == [False, True, True]

    def test_depth_bounds_window(self):
        misses = np.array([0, 9])
        assert stream_hits(misses, 1, 4).tolist() == [False, False]
        assert stream_hits(misses, 1, 9).tolist() == [False, True]

    def test_backward_jump_misses(self):
        assert stream_hits(np.array([5, 4]), 2, 8).tolist() == [False, False]

    def test_multiple_buffers_track_interleaved_streams(self):
        # Two interleaved sequential streams; one buffer loses the first
        # stream every time the second allocates, two buffers keep both.
        misses = np.array([0, 8, 1, 9, 2, 10])
        one = stream_hits(misses, 1, 2)
        two = stream_hits(misses, 2, 2)
        assert one.sum() < two.sum()
        assert two.tolist() == [False, False, True, True, True, True]

    def test_busy_stream_does_not_evict_idle_buffer(self):
        # Three consecutive hits on the first stream must not displace the
        # buffer tracking the second stream: hits slide their own buffer,
        # only misses allocate (LRU).
        misses = np.array([0, 100, 1, 2, 3, 101])
        assert stream_hits(misses, 2, 2).tolist() == [False, False, True, True, True, True]


def _mask(kinds, vertices, sizes, name):
    """One mechanism's own hit mask at ``sizes``."""
    if name == "victim":
        return victim_hits(kinds, vertices, sizes["victim_entries"])
    misses = vertices[kinds == MISS]
    if name == "miss":
        return miss_cache_hits(misses, sizes["miss_entries"])
    return stream_hits(misses, sizes["stream_buffers"], sizes["stream_depth"])


class TestHierarchy:
    @pytest.mark.parametrize("sizing", sorted(SIZINGS))
    @pytest.mark.parametrize("subset", MECHANISM_SUBSETS, ids="+".join)
    def test_combined_is_union_of_masks(self, graph, subset, sizing):
        result, kinds, vertices = _baseline(graph)
        rows = miss_path_ablation_rows(graph, CAPACITY, mechanisms=subset, **SIZINGS[sizing])
        sizes = {**DEFAULT_SIZES, **SIZINGS[sizing]}
        masks = {name: _mask(kinds, vertices, sizes, name) for name in subset}
        union = np.zeros(result.random_accesses, dtype=bool)
        for mask in masks.values():
            union |= mask
        if len(subset) > 1:
            masks["+".join(subset)] = union
        assert [row["mechanism"] for row in rows] == list(masks)
        for row in rows:
            assert row["accesses"] == result.random_accesses
            assert row["hits"] == int(masks[row["mechanism"]].sum())
            assert row["sequential_fetches"] == result.vertex_fetches

    def test_rows_include_combined_entry(self, graph):
        rows = miss_path_ablation_rows(graph, CAPACITY, mechanisms=("victim", "stream"))
        assert [row["mechanism"] for row in rows] == ["victim", "stream", "victim+stream"]

    def test_sizing_comes_from_the_arguments(self, graph):
        _, kinds, vertices = _baseline(graph)
        misses = vertices[kinds == MISS]
        [row] = miss_path_ablation_rows(
            graph, CAPACITY, mechanisms=("stream",), stream_buffers=7, stream_depth=3
        )
        assert row["hits"] == int(stream_hits(misses, 7, 3).sum())
        assert row["hits"] != int(stream_hits(misses, 4, 16).sum())

    def test_defaults_are_every_mechanism_at_the_default_sizes(self, graph):
        explicit = miss_path_ablation_rows(
            graph,
            CAPACITY,
            policies=("vertex_order",),
            mechanisms=MISS_PATH_MECHANISMS,
            **DEFAULT_SIZES,
        )
        assert miss_path_ablation_rows(graph, CAPACITY) == explicit

    def test_empty_trace(self):
        # An edgeless graph evicts but never misses.
        edgeless = CSRGraph.from_edge_list([], num_vertices=8, symmetric=True)
        rows = miss_path_ablation_rows(edgeless, 2)
        assert [row["mechanism"] for row in rows] == [*MISS_PATH_MECHANISMS, "victim+miss+stream"]
        for row in rows:
            assert (row["accesses"], row["hits"], row["hit_rate_pct"]) == (0, 0, 0.0)
        empty = np.zeros(0, dtype=np.int64)
        assert victim_hits(empty.astype(np.int8), empty, 4).size == 0
        assert stream_hits(empty, 4, 16).size == 0

    def test_row_keys_and_dataset_column(self, graph):
        columns = [
            "policy",
            "mechanism",
            "accesses",
            "hits",
            "hit_rate_pct",
            "dram_random_avoided",
            "dram_random_remaining",
            "sequential_fetches",
        ]
        [plain] = miss_path_ablation_rows(graph, CAPACITY, mechanisms=("miss",))
        [named] = miss_path_ablation_rows(graph, CAPACITY, mechanisms=("miss",), dataset="PL")
        assert list(plain) == columns
        assert list(named) == ["dataset", *columns]
        assert named == {"dataset": "PL", **plain}
        hits, accesses = plain["hits"], plain["accesses"]
        assert plain["hit_rate_pct"] == round(100.0 * (hits / accesses), 2)
        assert plain["dram_random_remaining"] == accesses - hits


#: sha256 of every id-order table on the module graph at 60 resident
#: records: each sizing, each mechanism subset, all four policies (128 rows).
TABLES_DIGEST = "eabc8f09ff0df2c976025a522ba987efdb81d0d922e562f6450c4c637e3b9ec5"


def test_every_id_order_table_is_pinned(graph):
    rows = [
        row
        for sizing in sorted(SIZINGS)
        for subset in MECHANISM_SUBSETS
        for row in miss_path_ablation_rows(
            graph,
            CAPACITY,
            policies=ID_ORDER_POLICIES,
            mechanisms=subset,
            **SIZINGS[sizing],
        )
    ]
    assert len(rows) == 128
    assert {row["sequential_fetches"] for row in rows} == {graph.num_vertices}
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == TABLES_DIGEST


class TestValidation:
    """Each check runs before any walk: the graph (``None`` here) is never read."""

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match=r"unknown mechanisms \['belady'\]"):
            miss_path_ablation_rows(None, CAPACITY, mechanisms=("belady",))
        with pytest.raises(ValueError, match="unknown mechanisms"):
            miss_path_ablation_rows(None, CAPACITY, mechanisms=("victim", "prefetcher-9000"))

    def test_repeated_names_rejected(self):
        # A repeated name would run its mechanism twice and list it twice.
        with pytest.raises(ValueError, match=r"duplicate mechanisms \['victim'\]"):
            miss_path_ablation_rows(None, CAPACITY, mechanisms=("victim", "victim"))
        with pytest.raises(ValueError, match=r"duplicate mechanisms \['stream'\]"):
            miss_path_ablation_rows(None, CAPACITY, mechanisms=("stream", "miss", "stream"))

    @pytest.mark.parametrize("size", sorted(DEFAULT_SIZES))
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_sizes_rejected(self, size, value):
        with pytest.raises(ValueError, match=f"{size} must be positive, got {value}"):
            miss_path_ablation_rows(None, CAPACITY, **{size: value})

    def test_defaults_are_valid(self, graph):
        assert len(miss_path_ablation_rows(graph, CAPACITY)) == len(MISS_PATH_MECHANISMS) + 1
        assert miss_path_ablation_rows(graph, CAPACITY, mechanisms=()) == []
