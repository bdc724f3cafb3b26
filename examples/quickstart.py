#!/usr/bin/env python3
"""Quickstart: simulate GNNIE inference on a citation graph.

This walks through the core public API in five steps:

1. build a synthetic stand-in for a benchmark dataset (Table II),
2. inspect the properties GNNIE is designed around (feature sparsity,
   power-law degrees),
3. run the functional GNN reference model to get actual outputs,
4. simulate the same inference on the GNNIE accelerator model,
5. compare against the PyG-CPU and PyG-GPU baseline cost models.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import compare_against_platform, format_table
from repro.baselines import PyGCPUModel, PyGGPUModel
from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig
from repro.hw.config import array_macs
from repro.models import build_model
from repro.plan import lower
from repro.sim import GNNIEExecutor


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Build a dataset.
    # ------------------------------------------------------------------ #
    graph = build_dataset("cora", seed=0)
    stats = graph.stats()
    print("Dataset:", stats.name)
    print(f"  vertices={stats.num_vertices}  edges={stats.num_edges}  "
          f"features={stats.feature_length}  labels={stats.num_labels}")

    # ------------------------------------------------------------------ #
    # 2. The two properties GNNIE exploits.
    # ------------------------------------------------------------------ #
    print(f"  input feature sparsity: {100 * stats.feature_sparsity:.2f}%")
    print(f"  adjacency sparsity:     {100 * stats.adjacency_sparsity:.4f}%")
    degrees = np.sort(graph.degrees())[::-1]
    hub_share = degrees[: len(degrees) // 10].sum() / degrees.sum()
    print(f"  top-10% vertices hold {100 * hub_share:.1f}% of all edges (power law)")

    # ------------------------------------------------------------------ #
    # 3. Functional reference model (what the accelerator must compute).
    # ------------------------------------------------------------------ #
    model = build_model("gcn", graph.feature_length, graph.num_label_classes, seed=0)
    logits = model.forward(graph.adjacency, graph.features)
    predictions = logits.argmax(axis=1)
    agreement = float(np.mean(predictions == graph.labels))
    print(f"\nFunctional 2-layer GCN produced logits of shape {logits.shape} "
          f"(untrained label agreement {agreement:.2f})")

    # ------------------------------------------------------------------ #
    # 4. Simulate the inference on GNNIE.
    # ------------------------------------------------------------------ #
    config = AcceleratorConfig()
    executor = GNNIEExecutor(config)
    table = executor.table  # the fixed design every price reads
    print(f"\nGNNIE configuration: {config.num_rows}x{table.num_cols} CPEs, "
          f"{array_macs(config, table)} MACs @ {table.frequency_hz / 1e9:.1f} GHz, "
          f"chip area ~{executor.chip_area_mm2():.1f} mm^2")

    rows = []
    for family in ("gcn", "gat", "graphsage", "ginconv", "diffpool"):
        result = executor.execute(lower(family, graph), graph)
        rows.append(
            {
                "model": family.upper(),
                "cycles": result.total_cycles,
                "latency_us": round(result.latency_seconds * 1e6, 2),
                "effective_tops": round(result.effective_tops, 2),
                "energy_uJ": round(result.energy_joules * 1e6, 2),
                "inferences_per_kJ": result.inferences_per_kilojoule,
            }
        )
    print()
    print(format_table(rows, title="GNNIE inference on Cora (simulated)"))

    # ------------------------------------------------------------------ #
    # 5. Compare against the software baselines.
    # ------------------------------------------------------------------ #
    gcn_result = executor.execute(lower("gcn", graph), graph)
    comparison = []
    for platform in (PyGCPUModel(), PyGGPUModel()):
        entry = compare_against_platform(gcn_result, graph, platform)
        comparison.append(
            {
                "baseline": entry.platform,
                "baseline_latency_ms": round(entry.baseline_latency_s * 1e3, 3),
                "gnnie_latency_us": round(entry.gnnie_latency_s * 1e6, 2),
                "speedup": round(entry.speedup, 1),
            }
        )
    print()
    print(format_table(comparison, title="GCN: GNNIE vs software baselines"))


if __name__ == "__main__":
    main()
