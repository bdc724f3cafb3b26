#!/usr/bin/env python3
"""Design-space exploration: MAC allocation, buffer sizing and β.

The paper selects the Flexible MAC allocation (4/5/6 MACs per CPE across the
row groups) "through design space exploration, optimizing the cost-to-benefit
ratio (speedup gain : hardware overhead)".  This example reproduces that
exploration on the Cora and Pubmed stand-ins:

* Designs A–E (uniform 4/5/6/7 MACs per CPE and the flexible allocation) are
  compared on Weighting cycles, area and the β metric of Fig. 17,
* the input-buffer capacity is swept to show its effect on Aggregation
  traffic (rounds and refetches).

Run with:  python examples/design_space_exploration.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import design_beta_study, format_table
from repro.datasets import build_dataset
from repro.hw import GNNIE_TABLE, AcceleratorConfig, design_preset
from repro.hw.config import CacheKnobs, pricing_view
from repro.hw.energy import chip_area_mm2
from repro.plan import lower
from repro.sim import GNNIEExecutor, run_cache_simulation


def main() -> None:
    cora = build_dataset("cora", seed=0)
    pubmed = build_dataset("pubmed", seed=0)

    # ------------------------------------------------------------------ #
    # 1. Designs A-E: cycles, area, and speedup per added MAC.
    # ------------------------------------------------------------------ #
    rows = []
    reference = None
    for name in ("A", "B", "C", "D", "E"):
        config = design_preset(name)
        result = GNNIEExecutor(config).execute(lower("gcn", cora), cora)
        if name == "A":
            reference = result
        rows.append(
            {
                "design": config.name,
                "total_macs": config.total_macs,
                "area_mm2": round(chip_area_mm2(GNNIE_TABLE, config), 2),
                "gcn_cycles": result.total_cycles,
                "speedup_vs_A": round(reference.total_cycles / result.total_cycles, 3),
            }
        )
    print(format_table(rows, title="Designs A-E on Cora (GCN inference)"))

    beta_rows = []
    for dataset in (cora, pubmed):
        betas = design_beta_study(dataset)
        row = {"dataset": dataset.name}
        row.update({f"beta_{k}": round(v, 2) for k, v in betas.items()})
        beta_rows.append(row)
    print()
    print(format_table(beta_rows, title="β = Weighting-cycle reduction per added MAC (Fig. 17)"))
    print("Design E (flexible MACs, 1216 total) achieves the best speedup per added MAC.\n")

    # ------------------------------------------------------------------ #
    # 2. Input-buffer sweep: residency vs Aggregation DRAM traffic.
    # ------------------------------------------------------------------ #
    buffer_rows = []
    for kilobytes in (128, 256, 512, 1024, 2048):
        config = replace(AcceleratorConfig(), input_buffer_bytes=kilobytes * 1024)
        knobs = pricing_view(CacheKnobs, config, GNNIE_TABLE)
        cache = run_cache_simulation(pubmed.adjacency, knobs, feature_length=128)
        buffer_rows.append(
            {
                "input_buffer_KB": kilobytes,
                "rounds": cache.num_rounds,
                "vertex_fetches": cache.vertex_fetches,
                "refetch_factor": round(cache.vertex_fetches / pubmed.num_vertices, 2),
                "dram_MB": round(cache.total_dram_bytes / 1e6, 2),
            }
        )
    print(format_table(buffer_rows, title="Input-buffer sweep on Pubmed (Aggregation)"))
    print("\nA larger input buffer keeps more of the graph resident, so fewer Rounds and "
          "less refetch traffic are needed — the paper's 512 KB choice balances area "
          "against traffic for graphs of Pubmed's size.")


if __name__ == "__main__":
    main()
