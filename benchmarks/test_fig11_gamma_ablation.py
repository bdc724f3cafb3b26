"""Fig. 11 — ablation of the eviction threshold γ (Cora, Citeseer, Pubmed).

Raising γ evicts vertices that still have unprocessed edges, which must be
refetched in later Rounds, so DRAM accesses grow with γ; a γ that is too low
risks deadlock (no eviction candidates), which the controller resolves
dynamically.  The paper uses a static γ = 5.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import format_table
from repro.hw import AcceleratorConfig
from repro.sim import run_cache_simulation

GAMMAS = (2, 5, 10, 25)
CITATION = ("cora", "citeseer", "pubmed")


def test_fig11_gamma_sweep(benchmark, record, citation_datasets):
    def compute():
        table = {}
        for name, graph in citation_datasets.items():
            config = AcceleratorConfig().with_input_buffer_for(graph.name)
            table[name] = {
                gamma: run_cache_simulation(
                    graph.adjacency, replace(config, gamma=gamma), feature_length=128
                )
                for gamma in GAMMAS
            }
        return table

    table = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for name, sweep in table.items():
        for gamma, result in sweep.items():
            rows.append(
                {
                    "dataset": citation_datasets[name].name,
                    "gamma": gamma,
                    "dram_accesses": result.total_dram_accesses,
                    "rounds": result.num_rounds,
                    "deadlock_events": result.deadlock_events,
                }
            )
    record("fig11_gamma_ablation", format_table(rows, title="Fig. 11 — DRAM accesses vs γ"))

    for name, sweep in table.items():
        accesses = {gamma: sweep[gamma].total_dram_accesses for gamma in GAMMAS}
        # Aggregation always completes regardless of γ.
        undirected = citation_datasets[name].adjacency.num_edges // 2
        assert all(result.total_edges_processed == undirected for result in sweep.values())
        # DRAM accesses do not decrease when γ grows from small to the
        # paper's default and beyond (more evicted-then-refetched vertices).
        assert accesses[2] <= accesses[5] <= accesses[10] * 1.02
        assert accesses[max(GAMMAS)] >= accesses[min(GAMMAS)]
    # On the large graph the sensitivity is pronounced (paper's Fig. 11(c)).
    pubmed_sweep = table["pubmed"]
    assert (
        pubmed_sweep[10].total_dram_accesses
        > 1.5 * pubmed_sweep[2].total_dram_accesses
    )
