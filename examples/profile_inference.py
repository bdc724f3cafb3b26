#!/usr/bin/env python3
"""Profile one GNNIE inference with the ``repro.obs`` observability layer.

The simulator is instrumented with a hierarchical span tracer
(``inference → layer → phase-op``) and a metrics registry, both disabled
no-ops by default (results stay byte-identical).  This example turns them
on for a single GAT inference on Cora and shows the three ways to look at
the result:

* a flame-style table: per-span modeled attribution (cycles, MACs, DRAM
  bytes, energy) next to host wall time — the modeled cycles of the
  phase-op spans sum exactly to ``result.total_cycles``;
* the metrics snapshot: how many cache simulations ran and how many
  Aggregation ops were served from the simulation memo;
* a Chrome trace-event JSON, one timeline track per GNN layer, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

The same machinery scales to fleets: ``repro sweep --trace fleet.json
--jobs 4`` merges every worker's span segment onto one multi-process
timeline (one track per worker), and ``repro tune --trace`` adds one span
per tuner generation.

Run with:  python examples/profile_inference.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import format_table
from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig
from repro.obs import MetricsRegistry, Tracer, flame_rows, write_chrome_trace
from repro.plan import lower
from repro.sim import GNNIEExecutor


def main() -> None:
    graph = build_dataset("cora", seed=0)
    config = AcceleratorConfig()

    tracer = Tracer()
    metrics = MetricsRegistry()
    executor = GNNIEExecutor(config, tracer=tracer, metrics=metrics)
    result = executor.execute(lower("gat", graph), graph)

    # ------------------------------------------------------------------ #
    # 1. Flame-style attribution table
    # ------------------------------------------------------------------ #
    rows = flame_rows(tracer.records)
    print(format_table(rows, title=f"GAT on {graph.name}: span attribution"))
    op_cycles = sum(
        record.attrs.get("cycles", 0)
        for record in tracer.records
        if record.category == "op"
    )
    print(f"\nphase-op modeled cycles {op_cycles} == total_cycles {result.total_cycles}")

    # ------------------------------------------------------------------ #
    # 2. Metrics registry (cache-simulation counters)
    # ------------------------------------------------------------------ #
    print()
    print(
        format_table(
            [
                {
                    "metric": entry["name"],
                    "labels": ";".join(
                        f"{k}={v}" for k, v in sorted(entry["labels"].items())
                    )
                    or "-",
                    "value": entry["value"],
                }
                for entry in metrics.snapshot()
            ],
            title="Metrics",
        )
    )

    # ------------------------------------------------------------------ #
    # 3. Chrome trace for Perfetto / chrome://tracing
    # ------------------------------------------------------------------ #
    trace_path = Path(tempfile.mkdtemp()) / "gat_cora_trace.json"
    write_chrome_trace(
        trace_path,
        tracer.records,
        track="layer",
        metrics=metrics,
        metadata={"dataset": graph.name, "family": "gat"},
    )
    print(f"\nChrome trace written to {trace_path}")
    print("open https://ui.perfetto.dev and load it to browse the timeline")


if __name__ == "__main__":
    main()
