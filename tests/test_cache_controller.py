"""Tests for the degree-aware cache controller and the vertex-order baseline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import controller, simulate_policy, vertex_record_bytes
from repro.cache.controller import stream_order
from repro.datasets import build_dataset
from repro.graph import CSRGraph, power_law_graph
from repro.hw.config import GNNIE_TABLE, AcceleratorConfig, CacheKnobs, pricing_view
from repro.sim.aggregation_sim import input_buffer_capacity


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(400, 1600, exponent=2.1, seed=71)


def run_controller(graph, capacity, gamma=5):
    return simulate_policy(
        "degree_aware",
        graph,
        capacity,
        bytes_per_vertex=128,
        gamma=gamma,
        index_bytes=GNNIE_TABLE.index_bytes,
    )


def vertex_order(graph, capacity_vertices):
    return simulate_policy(
        "vertex_order", graph, capacity_vertices, index_bytes=GNNIE_TABLE.index_bytes
    )


class TestPolicyConfig:
    def test_validation(self, graph):
        with pytest.raises(ValueError):
            simulate_policy("degree_aware", graph, 0, index_bytes=GNNIE_TABLE.index_bytes)
        with pytest.raises(ValueError):
            simulate_policy(
                "degree_aware", graph, 8, gamma=-1, index_bytes=GNNIE_TABLE.index_bytes
            )

    def test_vertex_record_bytes(self):
        knobs = pricing_view(CacheKnobs, AcceleratorConfig(), GNNIE_TABLE)
        record = vertex_record_bytes(128, 10.0, knobs)
        assert record == 128 + 40 + 8
        with pytest.raises(ValueError):
            vertex_record_bytes(0, 5.0, knobs)


class TestDegreeAwareController:
    def test_processes_every_edge_exactly_once(self, graph):
        result = run_controller(graph, capacity=80)
        undirected = graph.num_edges // 2
        assert result.total_edges_processed == undirected
        assert int(result.edges_processed.sum()) == undirected

    def test_all_dram_traffic_is_sequential(self, graph):
        result = run_controller(graph, capacity=80)
        assert result.random_accesses == 0
        assert result.sequential_fetch_bytes > 0

    def test_cache_larger_than_graph_single_round(self, graph):
        result = run_controller(graph, capacity=graph.num_vertices)
        assert result.num_rounds == 1
        assert result.vertex_fetches == graph.num_vertices

    def test_small_cache_needs_multiple_rounds_and_refetches(self, graph):
        result = run_controller(graph, capacity=40)
        assert result.num_rounds > 1
        assert result.vertex_fetches > graph.num_vertices

    def test_alpha_snapshots_include_initial_distribution(self, graph):
        result = run_controller(graph, capacity=60)
        assert len(result.alpha_round_snapshots) >= result.num_rounds
        initial = result.alpha_round_snapshots[0]
        np.testing.assert_array_equal(
            np.sort(initial), np.sort(graph.degrees()[graph.degrees() > 0])
        )

    def test_alpha_maximum_decreases_over_rounds(self, graph):
        result = run_controller(graph, capacity=60)
        maxima = [snap.max() if snap.size else 0 for snap in result.alpha_round_snapshots]
        assert all(later <= earlier for earlier, later in zip(maxima, maxima[1:]))

    def test_larger_gamma_does_not_reduce_dram_accesses(self, graph):
        low = run_controller(graph, capacity=60, gamma=2)
        high = run_controller(graph, capacity=60, gamma=30)
        assert high.total_dram_accesses >= low.total_dram_accesses

    def test_degree_order_beats_id_order(self, graph):
        """Streaming high-degree vertices first and processing only resident
        subgraphs needs no more DRAM accesses than walking vertices in id
        order through a FIFO buffer of the same size."""
        degree_order = run_controller(graph, capacity=60)
        id_order = vertex_order(graph, capacity_vertices=60)
        assert degree_order.total_dram_accesses <= id_order.total_dram_accesses

    def test_iteration_columns_consistent(self, graph):
        result = run_controller(graph, capacity=60)
        columns = (
            result.round_index,
            result.edges_processed,
            result.max_edges_per_vertex,
            result.resident_vertices,
        )
        assert all(column.dtype == np.int64 for column in columns)
        assert {column.size for column in columns} == {result.num_iterations}
        assert result.num_iterations > result.num_rounds
        assert (result.resident_vertices <= 60).all()
        assert (result.edges_processed >= 0).all()
        assert (result.max_edges_per_vertex <= result.edges_processed).all()
        assert (np.diff(result.round_index) >= 0).all()
        assert result.round_index[0] == 1 and result.round_index[-1] == result.num_rounds

    def test_star_graph_hub_retained(self):
        """The hub of a star has the highest degree; with a cache of 3 (and
        so r = 1) the policy keeps it resident while its α stays above γ, so
        almost every leaf edge is processed in the first Round."""
        star = CSRGraph.from_edge_list(
            [(0, i) for i in range(1, 12)], num_vertices=12, symmetric=True
        )
        result = run_controller(star, capacity=3, gamma=2)
        assert result.total_edges_processed == 11
        assert result.num_rounds <= 2
        first_round_edges = result.edges_processed[result.round_index == 1].sum()
        assert first_round_edges >= 9

    def test_walk_at_the_iteration_bound_raises_instead_of_truncating(
        self, graph, monkeypatch
    ):
        """A walk that reaches MAX_ITERATIONS with edges left must not return
        a partial result for the cycle model to price."""
        complete = run_controller(graph, capacity=40)
        monkeypatch.setattr(controller, "MAX_ITERATIONS", 3)
        with pytest.raises(
            RuntimeError,
            match=rf"MAX_ITERATIONS \(3\) with \d+ of {graph.num_edges // 2} edges unprocessed",
        ):
            run_controller(graph, capacity=40)
        # A walk that finishes exactly at the bound is complete, not truncated.
        monkeypatch.setattr(controller, "MAX_ITERATIONS", complete.num_iterations)
        at_bound = run_controller(graph, capacity=40)
        np.testing.assert_array_equal(at_bound.edges_processed, complete.edges_processed)

    def test_deadlock_resolution_when_gamma_zero(self, graph):
        """γ = 0 never marks eviction candidates; the controller must detect
        the deadlock and force progress instead of spinning."""
        result = run_controller(graph, capacity=40, gamma=0)
        assert result.total_edges_processed == graph.num_edges // 2
        assert result.deadlock_events > 0


@pytest.fixture(scope="module")
def ppi_quarter():
    return build_dataset("ppi", scale=0.25, seed=0).adjacency


def _log_digest(result) -> str:
    """sha256 of the four iteration columns and every α snapshot."""
    digest = hashlib.sha256()
    for column in (
        result.round_index,
        result.edges_processed,
        result.max_edges_per_vertex,
        result.resident_vertices,
    ):
        digest.update(column.astype(np.int64).tobytes())
    for snapshot in result.alpha_round_snapshots:
        digest.update(np.int64(snapshot.size).tobytes())
        digest.update(snapshot.astype(np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    ("gamma", "rounds", "iterations", "deadlocks", "fetches", "writeback", "log_sha256",
     "evictions_sha256"),
    [
        (0, 19, 1600, 776, 211_204, 787_872,
         "57537115fa6b2d0d081b4cc3c22abf8349cd0d265f1b6f023152534806a75a07",
         "3ae5dfeaf5f44990444685b3e05392a9a05ed26a3d0924a9f0001ca41c546b7d"),
        (2, 19, 2073, 455, 211_985, 790_996,
         "6896c65ecbc87b8aa2e397db2c979e66a95780e4a9779edce82943aab51780b3",
         "87194e9cacd95b70a0dfdd05e2954e1289a5527dea21cc99cc6a501b4b335f50"),
        (5, 14, 1169, 115, 228_351, 744_852,
         "b68deb190f68942ff0f37b11c0ed7479c62f15e1a8433c58bd2c2ce080ebcdb4",
         "d0785b32a2083928bd8377a4879da37b116e07db95a2321aafa1ea899152fdb4"),
    ],
    ids=("gamma0", "gamma2", "gamma5"),
)
def test_walk_pinned_at_ppi_quarter_scale(
    ppi_quarter, monkeypatch, gamma, rounds, iterations, deadlocks, fetches, writeback,
    log_sha256, evictions_sha256,
):
    """The oracle stops at 100 vertices; this pins the walk on PPI at scale
    0.25 (14,236 vertices, capacity 1,747 of 300-byte records at width 128).

    Its r = 218 deadlock victims per iteration are enough for the order they
    leave in, (α, id), to show in the eviction sequence its one victim
    picker returns; the oracle's r ≤ 5 cannot tell a sorted pick from a
    partitioned one."""
    _assert_pinned_walk(
        ppi_quarter, monkeypatch, (14_236, 1_747, 300), 292_891, gamma,
        (rounds, iterations, deadlocks, fetches, writeback), log_sha256, evictions_sha256,
    )


@pytest.mark.parametrize(
    ("gamma", "rounds", "iterations", "deadlocks", "fetches", "writeback", "log_sha256",
     "evictions_sha256"),
    [
        (0, 57, 3029, 2889, 286_166, 1_048_484,
         "3e7feba7c76cae06803737177e04d91d91995cdc128908c6c63c2e3857a37d19",
         "c4bb1ed42e05c050e96de13025ecb837c1fb4ab5e0fed99e12e1d229cf0c97c9"),
        (2, 48, 4016, 2356, 246_311, 884_472,
         "c1debf7f4f7bdaab475363803a1da665099e8a17c9e92646a2d9bf2ac7fdee15",
         "ae18e902012c3b812dd5d913bd9f494d0fe6a8692269337d6b7cd42ae1c2d371"),
        (5, 43, 5899, 1028, 219_988, 790_040,
         "415b8da37b45a551ea3a92babcfeefdb13d995d98edcb56867d09de0cc00731c",
         "a62b37f4de47151053f2b209d041c400a00d0a6a6c0054339634d1f1c4df94ae"),
    ],
    ids=("gamma0", "gamma2", "gamma5"),
)
def test_walk_pinned_at_reddit_bench_scale(
    reddit_bench_adjacency, monkeypatch, gamma, rounds, iterations, deadlocks, fetches,
    writeback, log_sha256, evictions_sha256,
):
    """Pins the walk where Rounds are many: Reddit at scale 0.02 (4,659
    vertices, capacity 633 of 828-byte records at width 128) runs 43–57
    Rounds against PPI 0.25's 14–19, and most of its iterations deadlock, so
    every Round's edge layout and the deadlock victim order reach the pins."""
    _assert_pinned_walk(
        reddit_bench_adjacency, monkeypatch, (4_659, 633, 828), 403_281, gamma,
        (rounds, iterations, deadlocks, fetches, writeback), log_sha256, evictions_sha256,
    )


def _assert_pinned_walk(
    adjacency, monkeypatch, sizing, undirected_edges, gamma, counts, log_sha256,
    evictions_sha256,
):
    """Walks ``adjacency`` at width 128 under ``AcceleratorConfig()`` and
    compares (vertices, capacity, record bytes), the edge total, the
    (rounds, iterations, deadlocks, fetches, α write-back bytes) counts, the
    iteration log and the eviction sequence with their pins."""
    knobs = pricing_view(CacheKnobs, AcceleratorConfig(), GNNIE_TABLE)
    capacity, record_bytes = input_buffer_capacity(adjacency, knobs, 128)
    assert (adjacency.num_vertices, capacity, record_bytes) == sizing
    pick = controller._select_evictions
    evicted = []

    def spy(residents, *args):
        evict_at, deadlocked = pick(residents, *args)
        evicted.append(residents[evict_at])
        return evict_at, deadlocked

    monkeypatch.setattr(controller, "_select_evictions", spy)
    result = simulate_policy(
        "degree_aware",
        adjacency,
        capacity,
        bytes_per_vertex=record_bytes,
        gamma=gamma,
        index_bytes=knobs.index_bytes,
    )
    assert result.total_edges_processed == adjacency.num_edges // 2 == undirected_edges
    assert (
        result.num_rounds,
        result.num_iterations,
        result.deadlock_events,
        result.vertex_fetches,
        result.alpha_writeback_bytes,
    ) == counts
    assert result.sequential_fetch_bytes == counts[3] * record_bytes
    assert _log_digest(result) == log_sha256
    evicted = np.concatenate(evicted).astype(np.int64)
    assert hashlib.sha256(evicted.tobytes()).hexdigest() == evictions_sha256


class TestVertexOrderBaseline:
    def test_counts_random_accesses(self, graph):
        result = vertex_order(graph, capacity_vertices=40)
        assert result.random_accesses > 0
        assert result.total_edges_processed == graph.num_edges // 2

    def test_large_buffer_reduces_random_accesses(self, graph):
        small = vertex_order(graph, capacity_vertices=20)
        large = vertex_order(graph, capacity_vertices=graph.num_vertices)
        assert large.random_accesses < small.random_accesses

    def test_degree_aware_policy_eliminates_random_traffic(self, graph):
        baseline = vertex_order(graph, capacity_vertices=60)
        policy = run_controller(graph, capacity=60)
        assert baseline.random_accesses > 0
        assert policy.random_accesses == 0

    def test_invalid_capacity(self, graph):
        with pytest.raises(ValueError):
            vertex_order(graph, capacity_vertices=0)


class TestStreamOrder:
    """Vertices are laid out in DRAM, and streamed, by (−degree, id)."""

    def test_descending_degrees(self, graph):
        ordered_degrees = graph.degrees()[stream_order(graph)]
        assert np.all(np.diff(ordered_degrees) <= 0)

    def test_tie_break_by_vertex_id(self):
        # A 4-cycle: every vertex has degree 2, so the order must be the ids.
        ring = CSRGraph.from_edge_list(
            [(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4, symmetric=True
        )
        assert stream_order(ring).tolist() == [0, 1, 2, 3]

    def test_permutation_is_bijection(self, graph):
        assert sorted(stream_order(graph).tolist()) == list(range(graph.num_vertices))


@settings(max_examples=25, deadline=None)
@given(
    num_vertices=st.integers(min_value=2, max_value=60),
    num_edges=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_stream_order_property(num_vertices, num_edges, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(num_vertices, size=(num_edges, 2))
    graph = CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)
    order = stream_order(graph)
    degrees = graph.degrees()[order]
    assert np.all(np.diff(degrees) <= 0)
    # Equal degrees keep ascending vertex ids.
    ties = np.diff(degrees) == 0
    assert np.all(np.diff(order)[ties] > 0)
    assert sorted(order.tolist()) == list(range(num_vertices))


@settings(max_examples=15, deadline=None)
@given(
    num_vertices=st.integers(min_value=4, max_value=80),
    num_edges=st.integers(min_value=3, max_value=300),
    capacity=st.integers(min_value=2, max_value=50),
    gamma=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=200),
)
def test_controller_completeness_property(num_vertices, num_edges, capacity, gamma, seed):
    """Regardless of capacity, γ or topology, every undirected edge is
    aggregated exactly once and the α counters drain to zero."""
    graph = power_law_graph(num_vertices, num_edges, seed=seed)
    result = simulate_policy(
        "degree_aware",
        graph,
        capacity,
        bytes_per_vertex=64,
        gamma=gamma,
        index_bytes=GNNIE_TABLE.index_bytes,
    )
    assert result.total_edges_processed == graph.num_edges // 2
    if result.alpha_round_snapshots:
        assert result.alpha_round_snapshots[-1].size == 0 or result.num_rounds >= 1
