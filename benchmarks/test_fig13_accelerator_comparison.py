"""Fig. 13 — performance comparison with HyGCN and AWB-GCN.

HyGCN cannot evaluate GATs (no softmax over neighborhoods) and AWB-GCN
implements GCNs only, so the comparison covers GCN / GraphSAGE / GINConv for
HyGCN and GCN for AWB-GCN.  The paper reports average speedups of 25×
(HyGCN, GCN), 72× (GraphSAGE), 7× (GINConv) and 2.1× (AWB-GCN, with 3.4×
fewer MACs).  The shape checks here: GNNIE is consistently faster than
HyGCN by roughly an order of magnitude and competitive-to-faster than
AWB-GCN despite using 1216 vs 4096 MACs.

Speedups are aggregated from the session's shared union-matrix sweep
(``sweep_rows``) via :func:`repro.analysis.sweep_aggregate.speedup_rows`.
"""

from __future__ import annotations

from repro.analysis import format_table, geometric_mean
from repro.analysis.sweep_aggregate import speedup_rows
from repro.hw import AcceleratorConfig

ALL_DATASETS = ("cora", "citeseer", "pubmed", "ppi", "reddit")
HYGCN_FAMILIES = ("gcn", "graphsage", "ginconv")


def test_fig13_hygcn_awbgcn_comparison(
    benchmark, record, sweep_rows, sweep_index, baseline_platforms
):
    hygcn = baseline_platforms["HyGCN"]
    awb = baseline_platforms["AWB-GCN"]

    def compute():
        speedups = {
            (entry["backend"], entry["dataset"], entry["family"]): entry["speedup"]
            for entry in speedup_rows(sweep_rows)
        }
        rows = []
        for family in HYGCN_FAMILIES:
            for name in ALL_DATASETS:
                rows.append(
                    {
                        "baseline": "HyGCN",
                        "model": family.upper(),
                        "dataset": sweep_index[("gnnie", name, family)]["dataset_abbrev"],
                        "speedup": round(speedups[("hygcn", name, family)], 2),
                    }
                )
        for name in ALL_DATASETS:
            rows.append(
                {
                    "baseline": "AWB-GCN",
                    "model": "GCN",
                    "dataset": sweep_index[("gnnie", name, "gcn")]["dataset_abbrev"],
                    "speedup": round(speedups[("awb-gcn", name, "gcn")], 2),
                }
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    record(
        "fig13_accelerator_comparison",
        format_table(rows, title="Fig. 13 — GNNIE speedup over HyGCN and AWB-GCN"),
        data=rows,
    )

    hygcn_speedups = [row["speedup"] for row in rows if row["baseline"] == "HyGCN"]
    awb_speedups = [row["speedup"] for row in rows if row["baseline"] == "AWB-GCN"]

    # GNNIE beats HyGCN by ~an order of magnitude on average (paper: 35x
    # overall); GINConv's deep MLP on the scaled citation graphs is the one
    # family where individual cells dip toward parity, so the per-cell
    # floor is loose and the per-family geomeans carry the ordering.
    assert all(speedup > 0.4 for speedup in hygcn_speedups)
    assert geometric_mean(hygcn_speedups) > 8
    for family in HYGCN_FAMILIES:
        family_speedups = [
            row["speedup"]
            for row in rows
            if row["baseline"] == "HyGCN" and row["model"] == family.upper()
        ]
        assert geometric_mean(family_speedups) > 2, family
    # AWB-GCN uses 3.4x more MACs; GNNIE is still faster on average
    # (paper: 2.1x).  Individual scaled datasets may fall below 1.
    assert geometric_mean(awb_speedups) > 1.2
    assert all(speedup > 0.4 for speedup in awb_speedups)
    # MAC-count context for the comparison.
    assert AcceleratorConfig().total_macs == 1216
    assert awb.table.num_macs / AcceleratorConfig().total_macs > 3.3
    # HyGCN does not support GATs (versatility argument of the paper).
    assert not hygcn.supports("gat")
    assert not awb.supports("graphsage")
