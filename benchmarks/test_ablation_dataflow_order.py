"""Design-choice ablation — Weighting-first vs. Aggregation-first dataflow.

Section III of the paper states that computing Ã (H W) "requires an order of
magnitude fewer computations" than (Ã H) W on these workloads, and Section VII
credits part of GNNIE's advantage over HyGCN to that ordering.  This ablation
quantifies the claim per dataset with the Table III layer configuration,
from the same per-layer counts the baseline platforms are priced from
(:func:`repro.baselines.workload_from_plan`): weighting first pays the
sparse Weighting MACs plus Aggregation at the output width, aggregation
first pays dense Weighting MACs (the aggregated features are dense) plus
Aggregation at the input width.
(Not a paper figure; listed with the ablations in the README's "Figure /
table index".)
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.baselines import workload_from_plan
from repro.plan import lower

ALL_DATASETS = ("cora", "citeseer", "pubmed", "ppi", "reddit")


def _order_ops(layer):
    """``(weighting_first, aggregation_first)`` operation counts of a layer."""
    return (
        layer.sparse_weighting_macs + layer.aggregation_ops_weighting_first,
        layer.dense_weighting_macs + layer.aggregation_ops_aggregation_first,
    )


def test_ablation_dataflow_order(benchmark, record, datasets):
    def compute():
        rows = []
        for name in ALL_DATASETS:
            graph = datasets[name]
            layers = workload_from_plan(lower("gcn", graph), graph).layers
            per_layer = [_order_ops(layer) for layer in layers]
            total_wf = sum(wf for wf, _ in per_layer)
            total_af = sum(af for _, af in per_layer)
            layer0_wf, layer0_af = per_layer[0]
            rows.append(
                {
                    "dataset": graph.name,
                    "weighting_first_ops": total_wf,
                    "aggregation_first_ops": total_af,
                    "advantage": round(total_af / total_wf, 2),
                    "layer0_advantage": round(layer0_af / layer0_wf, 2),
                    "preferred": (
                        "weighting_first" if total_wf <= total_af else "aggregation_first"
                    ),
                }
            )
        return rows

    rows = benchmark(compute)
    record(
        "ablation_dataflow_order",
        format_table(rows, title="Ablation — Weighting-first vs Aggregation-first (GCN)"),
    )

    for row in rows:
        # Weighting-first is the right order on every benchmark dataset.
        assert row["preferred"] == "weighting_first"
        assert row["advantage"] > 1.0
    # On the high-dimensional citation inputs the advantage is large
    # (the paper's "order of magnitude" claim).
    by_dataset = {row["dataset"]: row for row in rows}
    assert by_dataset["CR"]["layer0_advantage"] > 5
    assert by_dataset["CS"]["layer0_advantage"] > 5
