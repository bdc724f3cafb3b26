"""Mechanism ablation — miss-path hierarchy behind the input buffer.

Not a paper figure: the paper eliminates random DRAM traffic by *policy*
(degree-aware caching, Section VI); this table asks how much of the traffic
the ablation baseline still pays could instead be recovered by classic
hardware mechanisms on the miss path — a victim cache of evicted vertex
records, a tag-only miss cache, and stream buffers prefetching the
sequential vertex stream (the SimpleScalar DL1 miss-path study shape).
The hierarchy filters the vertex-order baseline's misses at its default
sizes; the degree-aware walk has no miss to filter, so it has no rows.

Asserted invariants:
* each mechanism alone strictly reduces random DRAM accesses versus the
  vertex-order baseline on every benchmarked dataset,
* the combined hierarchy is at least as good as its best constituent,
* the degree-aware walk pays no random DRAM access on any benchmarked
  dataset (``simulate_policy("degree_aware", …).random_accesses == 0``),
* victim+stream and miss+stream also recover part of the traffic LRU and
  static partition pay.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.cache import MISS_PATH_MECHANISMS, miss_path_ablation_rows, simulate_policy
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import CacheKnobs, pricing_view
from repro.sim import input_buffer_capacity

DATASETS = ("cora", "citeseer", "pubmed")
FEATURE_LENGTH = 128


def _knobs(graph):
    """The default chip's cache view for ``graph``'s input buffer."""
    config = AcceleratorConfig().resolve_input_buffer(graph.name)
    return pricing_view(CacheKnobs, config, GNNIE_TABLE)


def _capacity(graph):
    """Vertex records the input buffer the simulator charges holds."""
    capacity, _ = input_buffer_capacity(graph.adjacency, _knobs(graph), FEATURE_LENGTH)
    return capacity


def test_ablation_miss_path_mechanisms(benchmark, record, datasets):
    def compute():
        results = {}
        for name in DATASETS:
            graph = datasets[name]
            results[name] = miss_path_ablation_rows(
                graph.adjacency, _capacity(graph), dataset=graph.name
            )
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = [row for table in results.values() for row in table]
    record(
        "ablation_miss_path",
        format_table(rows, title="Ablation — miss-path mechanisms (VC / MC / SB)"),
        data=rows,
    )

    for name in DATASETS:
        table = results[name]
        assert {row["policy"] for row in table} == {"vertex_order"}
        baseline_misses = table[0]["accesses"]
        assert baseline_misses > 0
        per_mechanism = {
            row["mechanism"]: row for row in table if row["mechanism"] in MISS_PATH_MECHANISMS
        }
        # Each structure alone strictly reduces random DRAM traffic.
        for mechanism in MISS_PATH_MECHANISMS:
            row = per_mechanism[mechanism]
            assert row["dram_random_avoided"] > 0, (name, mechanism)
            assert row["dram_random_remaining"] < baseline_misses, (name, mechanism)
        # The combined hierarchy is at least as good as its best constituent.
        combined = [row for row in table if row["mechanism"] == "+".join(MISS_PATH_MECHANISMS)]
        assert combined[0]["dram_random_avoided"] >= max(
            per_mechanism[m]["dram_random_avoided"] for m in MISS_PATH_MECHANISMS
        )


def test_degree_aware_walk_has_no_miss_to_filter(datasets):
    for name in DATASETS:
        graph = datasets[name]
        knobs = _knobs(graph)
        capacity, record_bytes = input_buffer_capacity(graph.adjacency, knobs, FEATURE_LENGTH)
        result = simulate_policy(
            "degree_aware",
            graph.adjacency,
            capacity,
            bytes_per_vertex=record_bytes,
            gamma=knobs.gamma,
            index_bytes=knobs.index_bytes,
        )
        assert result.random_accesses == 0, name
        assert result.random_access_bytes == 0, name
        assert result.total_edges_processed == graph.adjacency.num_edges // 2, name


def test_miss_path_recovers_traffic_for_classic_policies(datasets):
    """VC+SB and MC+SB composites also help LRU / static partition."""
    graph = datasets["cora"]
    policies = ("lru", "static_partition")
    for pair in (("victim", "stream"), ("miss", "stream")):
        rows = miss_path_ablation_rows(
            graph.adjacency, _capacity(graph), policies=policies, mechanisms=pair
        )
        combined = [row for row in rows if row["mechanism"] == "+".join(pair)]
        assert [row["policy"] for row in combined] == list(policies)
        for row in combined:
            assert 0 < row["hits"] <= row["accesses"], (row["policy"], pair)
