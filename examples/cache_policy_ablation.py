#!/usr/bin/env python3
"""Cache policy ablation: degree-aware caching vs vertex-id-order processing.

Reproduces the behaviour behind Figs. 10, 11 and 18(left) of the paper on the
Pubmed stand-in:

* the degree-aware policy confines every random access to the on-chip buffer
  (zero random DRAM accesses), while id-order processing pays one random
  DRAM access for almost every non-resident neighbor,
* the per-Round α histograms flatten as the power-law tail is worked off,
* the eviction threshold γ trades buffer residency against refetch traffic.

Run with:  python examples/cache_policy_ablation.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import alpha_round_histograms, format_table
from repro.cache import simulate_policy, vertex_record_bytes
from repro.datasets import build_dataset
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import CacheKnobs, pricing_view
from repro.sim import run_cache_simulation


def main() -> None:
    graph = build_dataset("pubmed", seed=0)
    config = AcceleratorConfig().resolve_input_buffer(graph.name)
    feature_length = 128
    knobs = pricing_view(CacheKnobs, config, GNNIE_TABLE)
    record_bytes = vertex_record_bytes(feature_length, graph.adjacency.average_degree(), knobs)
    capacity = config.input_buffer_bytes // record_bytes
    print(f"Pubmed stand-in: {graph.num_vertices} vertices, "
          f"{graph.num_edges // 2} undirected edges")
    print(f"Input buffer: {config.input_buffer_bytes // 1024} KB -> {capacity} resident vertices "
          f"({100 * capacity / graph.num_vertices:.1f}% of the graph)\n")

    # ------------------------------------------------------------------ #
    # 1. Degree-aware policy vs id-order baseline.
    # ------------------------------------------------------------------ #
    policy_result = run_cache_simulation(graph.adjacency, knobs, feature_length)
    baseline_result = simulate_policy(
        "vertex_order",
        graph.adjacency,
        capacity,
        bytes_per_vertex=record_bytes,
        index_bytes=knobs.index_bytes,
    )
    rows = [
        {
            "policy": "degree-aware (GNNIE)",
            "rounds": policy_result.num_rounds,
            "vertex_fetches": policy_result.vertex_fetches,
            "random_dram_accesses": policy_result.random_accesses,
            "dram_MB": round(policy_result.total_dram_bytes / 1e6, 2),
        },
        {
            "policy": "vertex-id order (baseline)",
            "rounds": baseline_result.num_rounds,
            "vertex_fetches": baseline_result.vertex_fetches,
            "random_dram_accesses": baseline_result.random_accesses,
            "dram_MB": round(baseline_result.total_dram_bytes / 1e6, 2),
        },
    ]
    print(format_table(rows, title="Cache policy comparison (Aggregation traffic)"))

    # ------------------------------------------------------------------ #
    # 2. α histograms across Rounds (Fig. 10).
    # ------------------------------------------------------------------ #
    histograms = alpha_round_histograms(policy_result)
    alpha_rows = [
        {
            "round": hist.round_index,
            "unfinished_vertices": hist.unfinished_vertices,
            "max_alpha": hist.max_alpha,
            "peak_frequency": hist.peak_frequency,
        }
        for hist in histograms
    ]
    print()
    print(format_table(alpha_rows, title="α distribution per Round (initial row = degree distribution)"))

    # ------------------------------------------------------------------ #
    # 3. γ sweep (Fig. 11).
    # ------------------------------------------------------------------ #
    gamma_rows = []
    for gamma in (2, 5, 10, 25):
        sweep = run_cache_simulation(graph.adjacency, replace(knobs, gamma=gamma), feature_length)
        gamma_rows.append(
            {
                "gamma": gamma,
                "dram_accesses": sweep.total_dram_accesses,
                "rounds": sweep.num_rounds,
                "deadlock_events": sweep.deadlock_events,
            }
        )
    print()
    print(format_table(gamma_rows, title="Eviction threshold γ sweep"))
    print("\nLarger γ evicts vertices that still have unprocessed edges, so they are "
          "refetched in later Rounds; γ too small risks deadlock (resolved dynamically).")


if __name__ == "__main__":
    main()
