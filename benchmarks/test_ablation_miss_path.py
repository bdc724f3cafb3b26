"""Mechanism ablation — miss-path hierarchy behind the input buffer.

Not a paper figure: the paper eliminates random DRAM traffic by *policy*
(degree-aware caching, Section VI); this table asks how much of the traffic
the ablation baseline still pays could instead be recovered by classic
hardware mechanisms on the miss path — a victim cache of evicted vertex
records, a tag-only miss cache, and stream buffers prefetching the
sequential vertex stream (the SimpleScalar DL1 miss-path study shape).

Asserted invariants:
* each mechanism alone strictly reduces random DRAM accesses versus the
  vertex-order baseline on every benchmarked dataset,
* the combined hierarchy is at least as good as its best constituent,
* the degree-aware policy is untouched — no input-buffer misses to filter
  and byte-identical sequential traffic with the hierarchy configured.
"""

from __future__ import annotations

from repro.analysis import format_table, miss_path_ablation_rows
from repro.cache import filter_misses, simulate_policy
from repro.hw import MISS_PATH_MECHANISMS, AcceleratorConfig
from repro.sim import input_buffer_capacity, run_cache_simulation

DATASETS = ("cora", "citeseer", "pubmed")
FEATURE_LENGTH = 128


def _config(graph, *mechanisms):
    return AcceleratorConfig().resolve_input_buffer(graph.name).with_miss_path(*mechanisms)


def test_ablation_miss_path_mechanisms(benchmark, record, datasets):
    def compute():
        results = {}
        for name in DATASETS:
            graph = datasets[name]
            results[name] = miss_path_ablation_rows(
                graph.adjacency,
                _config(graph, *MISS_PATH_MECHANISMS),
                FEATURE_LENGTH,
                policies=("vertex_order", "degree_aware"),
                dataset=graph.name,
            )
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = [row for table in results.values() for row in table]
    record(
        "ablation_miss_path",
        format_table(rows, title="Ablation — miss-path mechanisms (VC / MC / SB)"),
    )

    for name in DATASETS:
        table = results[name]
        baseline_rows = [row for row in table if row["policy"] == "vertex_order"]
        baseline_misses = baseline_rows[0]["accesses"]
        assert baseline_misses > 0
        per_mechanism = {
            row["mechanism"]: row
            for row in baseline_rows
            if row["mechanism"] in MISS_PATH_MECHANISMS
        }
        # Each structure alone strictly reduces random DRAM traffic.
        for mechanism in MISS_PATH_MECHANISMS:
            row = per_mechanism[mechanism]
            assert row["dram_random_avoided"] > 0, (name, mechanism)
            assert row["dram_random_remaining"] < baseline_misses, (name, mechanism)
        # The combined hierarchy is at least as good as its best constituent.
        combined = [
            row for row in baseline_rows if row["mechanism"] == "+".join(MISS_PATH_MECHANISMS)
        ]
        assert combined[0]["dram_random_avoided"] >= max(
            per_mechanism[m]["dram_random_avoided"] for m in MISS_PATH_MECHANISMS
        )
        # The degree-aware policy has no input-buffer misses to recover.
        for row in table:
            if row["policy"] == "degree_aware":
                assert row["accesses"] == 0 and row["dram_random_avoided"] == 0


def test_miss_path_leaves_degree_aware_sequential_traffic_unchanged(datasets):
    for name in ("cora", "pubmed"):
        graph = datasets[name]
        plain = run_cache_simulation(graph.adjacency, _config(graph), FEATURE_LENGTH)
        filtered = run_cache_simulation(
            graph.adjacency, _config(graph, *MISS_PATH_MECHANISMS), FEATURE_LENGTH
        )
        assert filtered.miss_path is not None
        assert filtered.miss_path.resolved == 0
        assert filtered.sequential_fetch_bytes == plain.sequential_fetch_bytes
        assert filtered.vertex_fetches == plain.vertex_fetches
        assert filtered.random_accesses == 0 and plain.random_accesses == 0


def test_miss_path_recovers_traffic_for_classic_policies(datasets):
    """VC+SB and MC+SB composites also help LRU / static partition."""
    graph = datasets["cora"]
    capacity, record_bytes = input_buffer_capacity(
        graph.adjacency, _config(graph), FEATURE_LENGTH
    )
    for policy in ("lru", "static_partition"):
        result = simulate_policy(
            policy, graph.adjacency, capacity, bytes_per_vertex=record_bytes, collect_trace=True
        )
        for pair in (("victim", "stream"), ("miss", "stream")):
            outcome = filter_misses(result.trace, _config(graph, *pair))
            assert 0 < outcome.resolved <= result.random_accesses, (policy, pair)
