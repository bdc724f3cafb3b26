"""Design-choice ablation — the 8-bit datapath.

GNNIE sizes its buffers for 1-byte weights and features (Section VIII-A).
This ablation checks that 8-bit symmetric quantization preserves the GCN's
argmax predictions on the citation stand-ins, and reports how the error grows
as the width shrinks.  (Not a paper figure; listed with the ablations in
the README's "Figure / table index".)
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.models import build_model, quantized_model_agreement


def test_ablation_quantization(benchmark, record, datasets):
    graph = datasets["cora"]
    model = build_model("gcn", graph.feature_length, graph.num_label_classes, seed=0)

    def compute():
        rows = []
        for bits in (4, 6, 8, 12):
            report = quantized_model_agreement(model, graph, bits=bits)
            rows.append(
                {
                    "bits": bits,
                    "argmax_agreement": round(report["argmax_agreement"], 4),
                    "relative_output_error": round(report["relative_output_error"], 4),
                }
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    record(
        "ablation_quantization",
        format_table(rows, title="Ablation — fixed-point width vs GCN prediction agreement (Cora)"),
    )

    by_bits = {row["bits"]: row for row in rows}
    # The 8-bit datapath the paper assumes keeps predictions essentially
    # unchanged.
    assert by_bits[8]["argmax_agreement"] > 0.95
    assert by_bits[12]["argmax_agreement"] >= by_bits[8]["argmax_agreement"] - 1e-9
    # Aggressively narrow datapaths degrade.
    assert by_bits[4]["relative_output_error"] >= by_bits[8]["relative_output_error"]
