"""Design-choice ablation — GNNIE's cache policy vs classic alternatives.

Section VII argues that history-based (GRASP/MRU-style) and static
partition/frequency schemes are inferior to GNNIE's dynamic
unprocessed-edge-count policy because only the latter measures a vertex's
*future* usefulness and keeps every DRAM access sequential.  This ablation
runs LRU, MRU, a static degree-pinned partition and the degree-aware policy
on the same buffer size and compares their off-chip behaviour.
(Not a paper figure; listed with the ablations in the README's "Figure /
table index".)
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.cache import simulate_policy, vertex_record_bytes
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import CacheKnobs, pricing_view

CITATION = ("cora", "pubmed")
POLICIES = ("degree_aware", "lru", "mru", "static_partition")


def test_ablation_cache_policy_comparison(benchmark, record, datasets):
    def compute():
        results = {}
        for name in CITATION:
            graph = datasets[name]
            config = AcceleratorConfig().resolve_input_buffer(graph.name)
            knobs = pricing_view(CacheKnobs, config, GNNIE_TABLE)
            record_bytes = vertex_record_bytes(128, graph.adjacency.average_degree(), knobs)
            capacity = max(1, config.input_buffer_bytes // record_bytes)
            results[name] = (
                capacity,
                {
                    policy: simulate_policy(
                        policy,
                        graph.adjacency,
                        capacity,
                        bytes_per_vertex=record_bytes,
                        index_bytes=knobs.index_bytes,
                    )
                    for policy in POLICIES
                },
            )
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for name, (capacity, comparison) in results.items():
        for policy, outcome in comparison.items():
            rows.append(
                {
                    "dataset": datasets[name].name,
                    "policy": policy,
                    "buffer_vertices": capacity,
                    "random_dram_accesses": outcome.random_accesses,
                    "sequential_fetches": outcome.vertex_fetches,
                    "total_dram_MB": round(outcome.total_dram_bytes / 1e6, 2),
                }
            )
    record(
        "ablation_cache_policies",
        format_table(rows, title="Ablation — cache policy comparison (Aggregation)"),
    )

    for name, (_, comparison) in results.items():
        degree_aware = comparison["degree_aware"]
        # Only GNNIE's policy eliminates random DRAM accesses entirely.
        assert degree_aware.random_accesses == 0
        for policy in ("lru", "mru", "static_partition"):
            assert comparison[policy].random_accesses > 0
        # Every policy completes Aggregation.
        undirected = datasets[name].adjacency.num_edges // 2
        assert all(r.total_edges_processed == undirected for r in comparison.values())
        # The static degree partition (the closest classic scheme) still pays
        # random accesses on the larger graph where the buffer is small.
    pubmed_comparison = results["pubmed"][1]
    assert pubmed_comparison["static_partition"].random_accesses > 10_000
