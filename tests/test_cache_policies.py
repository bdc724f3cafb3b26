"""Tests for the alternative cache policies (LRU / MRU / static partition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import POLICY_NAMES, simulate_policy
from repro.graph import CSRGraph, power_law_graph
from repro.hw import GNNIE_TABLE

#: The α word the degree-aware walk writes back; the id-order walks ignore it.
INDEX_BYTES = GNNIE_TABLE.index_bytes

CLASSIC = ("lru", "mru", "static_partition")


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(600, 3000, exponent=2.1, seed=91)


class TestClassicPolicies:
    def test_lru_counts_edges_and_misses(self, graph):
        result = simulate_policy("lru", graph, capacity_vertices=60, index_bytes=INDEX_BYTES)
        assert result.total_edges_processed == graph.num_edges // 2
        assert result.random_accesses > 0
        assert result.vertex_fetches == graph.num_vertices

    def test_mru_counts_edges(self, graph):
        result = simulate_policy("mru", graph, capacity_vertices=60, index_bytes=INDEX_BYTES)
        assert result.total_edges_processed == graph.num_edges // 2
        assert result.random_accesses > 0

    def test_static_partition_pins_hubs(self, graph):
        pinned = simulate_policy("static_partition", graph, 60, index_bytes=INDEX_BYTES)
        lru = simulate_policy("lru", graph, capacity_vertices=60, index_bytes=INDEX_BYTES)
        # Pinning the high-degree vertices serves most neighbor accesses
        # from the buffer, so misses drop versus plain LRU.
        assert pinned.random_accesses < lru.random_accesses

    def test_bigger_buffer_fewer_misses(self, graph):
        small = simulate_policy("lru", graph, capacity_vertices=20, index_bytes=INDEX_BYTES)
        large = simulate_policy("lru", graph, graph.num_vertices, index_bytes=INDEX_BYTES)
        assert large.random_accesses < small.random_accesses
        # With the whole graph resident only cold misses remain (each vertex
        # fetched out of order at most once).
        assert large.random_accesses <= graph.num_vertices

    def test_invalid_capacity(self, graph):
        for policy in POLICY_NAMES:
            with pytest.raises(ValueError):
                simulate_policy(policy, graph, capacity_vertices=0, index_bytes=INDEX_BYTES)

    def test_unknown_policy(self, graph):
        with pytest.raises(KeyError, match="unknown cache policy"):
            simulate_policy("random", graph, capacity_vertices=60, index_bytes=INDEX_BYTES)


class TestEdgeCases:
    """Degenerate buffer/graph shapes every policy must survive."""

    def test_capacity_one_buffer(self, graph):
        undirected = graph.num_edges // 2
        for policy in CLASSIC:
            result = simulate_policy(policy, graph, capacity_vertices=1, index_bytes=INDEX_BYTES)
            assert result.total_edges_processed == undirected
            # A one-slot buffer cannot co-locate any endpoint pair, so every
            # neighbor access that isn't a pinned hub misses.
            assert result.random_accesses > 0
            assert result.vertex_fetches == graph.num_vertices

    def test_single_vertex_graph(self):
        lonely = CSRGraph(indptr=np.array([0, 0]), indices=np.array([], dtype=np.int64))
        for policy in CLASSIC:
            result = simulate_policy(policy, lonely, capacity_vertices=4, index_bytes=INDEX_BYTES)
            assert result.total_edges_processed == 0
            assert result.random_accesses == 0
            assert result.vertex_fetches == 1

    def test_pinned_set_at_least_capacity(self, graph):
        # capacity 1 pins max(1, 1-1) = 1 vertex, so the pinned set fills the
        # whole buffer and every unpinned vertex streams through the single
        # fallback slot; the walk must still terminate and count every edge.
        result = simulate_policy("static_partition", graph, 1, index_bytes=INDEX_BYTES)
        assert result.total_edges_processed == graph.num_edges // 2
        assert result.random_accesses > 0

    def test_pinned_set_larger_than_replaceable_capacity(self, graph):
        # With capacity 2 the pinned hub occupies half the buffer; the other
        # slot takes all streaming traffic.
        small = simulate_policy("static_partition", graph, 2, index_bytes=INDEX_BYTES)
        large = simulate_policy("static_partition", graph, 120, index_bytes=INDEX_BYTES)
        assert small.random_accesses >= large.random_accesses


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def comparison(self, graph):
        return {
            policy: simulate_policy(policy, graph, 60, index_bytes=INDEX_BYTES)
            for policy in POLICY_NAMES
        }

    def test_all_policies_present(self, comparison):
        assert set(comparison) == {
            "degree_aware", "lru", "mru", "static_partition", "vertex_order"
        }

    def test_every_policy_processes_all_edges(self, comparison, graph):
        undirected = graph.num_edges // 2
        assert all(
            result.total_edges_processed == undirected for result in comparison.values()
        )

    def test_degree_aware_is_the_only_random_free_policy(self, comparison):
        assert comparison["degree_aware"].random_accesses == 0
        for name in (*CLASSIC, "vertex_order"):
            assert comparison[name].random_accesses > 0

    def test_degree_aware_total_traffic_competitive(self, comparison):
        """GNNIE's policy may refetch vertices over Rounds, but its total DRAM
        traffic stays within a small factor of the best classic policy while
        avoiding random accesses entirely."""
        degree_bytes = comparison["degree_aware"].total_dram_bytes
        best_classic = min(comparison[name].total_dram_bytes for name in CLASSIC)
        assert degree_bytes < 5 * best_classic
