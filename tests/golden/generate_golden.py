"""Regenerate the golden equivalence snapshots.

Each ``<dataset>_<family>.json`` snapshot is the full JSON report of one
``GNNIEExecutor`` inference of the family's lowered plan.  The cora/citeseer/pubmed files were dumped
from the pre-plan-IR engine (commit adae848) and pin the refactored
lower-then-execute path to the original behaviour; the ppi/reddit files
were generated from the plan-IR engine and pin the remaining cells of the
5-dataset × 5-family matrix against regression.  The ``*_ginconv`` files
were regenerated when cache simulations became a pure function of the plan
(each plan's first aggregation op sizes its simulation).
``tests/test_plan_golden.py`` fails if any cycle, byte or energy number
drifts.

``baseline_platforms.json`` snapshots the shared workload derivation and
the five baseline platform cost models for every (dataset, family) pair.

``idorder.json`` holds the same 25 reports under vertex-id-order caching
(``enable_degree_aware_caching=False``), keyed ``<dataset>_<family>``.  The
default reports carry no random DRAM access, so this file is the one golden
that prices the random-access stall.

``gnnie_table_variants.json`` pins GNNIE's table as a pricing input: for the
default table and for each entry's variant (+1 on an integer entry, x1.1 on
a float one), the cycles, DRAM bytes, energy, latency and chip area of
three cases on a freshly built Cora 0.25 graph (seed 0): GAT, GCN under
id-order caching and GCN on 2 chips.  Between them the cases reach the
id-order-only and link-only entries.  It was first generated with each
variant bound as ``GNNIE_TABLE`` in every ``repro`` module; this script
sets it on ``executor.table`` and must write the same bytes.

Run from the repository root to regenerate after an *intentional* model
change::

    PYTHONPATH=src python tests/golden/generate_golden.py
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields, replace

from repro.baselines import (
    AWBGCNModel,
    EnGNModel,
    HyGCNModel,
    PyGCPUModel,
    PyGGPUModel,
    workload_from_plan,
)
from repro.datasets import build_dataset
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.models import MODEL_FAMILIES
from repro.plan import lower
from repro.scaleout import execute_scaleout
from repro.sim import GNNIEExecutor
from repro.sim.trace import result_to_dict, result_to_json

#: (dataset, scale, seed) triples simulated for every family.  Scaled-down
#: stand-ins keep the 25 simulations fast enough for the tier-1 suite.
GOLDEN_DATASETS = (
    ("cora", 0.25, 1),
    ("citeseer", 0.25, 1),
    ("pubmed", 0.1, 1),
    ("ppi", 0.02, 1),
    ("reddit", 0.002, 1),
)

#: Workload totals pinned per (dataset, family) in baseline_platforms.json.
WORKLOAD_TOTALS = (
    "dense_weighting_macs",
    "sparse_weighting_macs",
    "aggregation_ops",
    "aggregation_ops_aggregation_first",
    "attention_ops",
    "sampling_ops",
    "dram_bytes",
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: The configuration ``idorder.json`` is priced under.
IDORDER_CONFIG = replace(AcceleratorConfig(), enable_degree_aware_caching=False)

#: The (dataset, scale, seed) ``gnnie_table_variants.json`` is priced on.
VARIANT_GRAPH = ("cora", 0.25, 0)


def table_variants():
    """``(entry name, table)`` for each entry of GNNIE's table, the table
    with that entry +1 (an integer entry) or x1.1 (a float one)."""
    for entry in fields(GNNIE_TABLE):
        value = getattr(GNNIE_TABLE, entry.name)
        value = value + 1 if isinstance(value, int) else value * 1.1
        yield entry.name, replace(GNNIE_TABLE, **{entry.name: value})


def price_variant_cases(executor: GNNIEExecutor, graph) -> dict[str, dict]:
    """The pinned numbers of the three variant cases on ``graph``."""
    gcn = lower("gcn", graph)
    cases = {
        "gat": (executor.execute(lower("gat", graph), graph), executor.config),
        "gcn_idorder": (executor.execute(gcn, graph, IDORDER_CONFIG), IDORDER_CONFIG),
        "gcn_2chips": (execute_scaleout(executor, gcn, graph, chips=2), executor.config),
    }
    return {
        case: {
            "total_cycles": result.total_cycles,
            "total_dram_bytes": result.total_dram_bytes,
            "energy_joules": result.energy_joules,
            "latency_seconds": result.latency_seconds,
            "chip_area_mm2": executor.chip_area_mm2(config),
        }
        for case, (result, config) in cases.items()
    }


def variant_snapshot() -> dict[str, dict]:
    """The default table's cases and each variant's, each priced on a
    freshly built graph."""
    dataset, scale, seed = VARIANT_GRAPH
    graph = build_dataset(dataset, scale=scale, seed=seed)
    snapshot = {"default": price_variant_cases(GNNIEExecutor(), graph)}
    for name, table in table_variants():
        executor = GNNIEExecutor()
        executor.table = table
        graph = build_dataset(dataset, scale=scale, seed=seed)
        snapshot[name] = price_variant_cases(executor, graph)
    return snapshot


def main() -> None:
    platforms = (PyGCPUModel(), PyGGPUModel(), HyGCNModel(), AWBGCNModel(), EnGNModel())
    baseline_snapshot: dict[str, dict] = {}
    idorder_snapshot: dict[str, dict] = {}
    for dataset, scale, seed in GOLDEN_DATASETS:
        graph = build_dataset(dataset, scale=scale, seed=seed)
        executor = GNNIEExecutor()
        for family in MODEL_FAMILIES:
            plan = lower(family, graph)
            result = executor.execute(plan, graph)
            path = GOLDEN_DIR / f"{dataset}_{family}.json"
            path.write_text(result_to_json(result) + "\n")
            print(f"wrote {path.name}: {result.total_cycles} cycles")
            idorder_snapshot[f"{dataset}_{family}"] = result_to_dict(
                executor.execute(plan, graph, IDORDER_CONFIG)
            )

            workload = workload_from_plan(plan, graph)
            entry = {name: getattr(workload, name) for name in WORKLOAD_TOTALS}
            entry["platforms"] = {
                platform.name: {
                    "latency_seconds": (execution := platform.execute(plan, graph)).latency_seconds,
                    "energy_joules": execution.energy_joules,
                }
                for platform in platforms
                if platform.supports(family)
            }
            baseline_snapshot[f"{dataset}_{family}"] = entry
    baseline_path = GOLDEN_DIR / "baseline_platforms.json"
    baseline_path.write_text(json.dumps(baseline_snapshot, indent=2) + "\n")
    print(f"wrote {baseline_path.name}: {len(baseline_snapshot)} entries")
    idorder_path = GOLDEN_DIR / "idorder.json"
    idorder_path.write_text(json.dumps(idorder_snapshot, indent=2) + "\n")
    print(f"wrote {idorder_path.name}: {len(idorder_snapshot)} entries")
    variants_path = GOLDEN_DIR / "gnnie_table_variants.json"
    variants = variant_snapshot()
    variants_path.write_text(json.dumps(variants, indent=2) + "\n")
    print(f"wrote {variants_path.name}: {len(variants)} tables")


if __name__ == "__main__":
    main()
