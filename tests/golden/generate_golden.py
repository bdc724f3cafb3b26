"""Regenerate the golden equivalence snapshots.

Each ``<dataset>_<family>.json`` snapshot is the full JSON report of one
``GNNIESimulator`` inference.  The cora/citeseer/pubmed files were dumped
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

Run from the repository root to regenerate after an *intentional* model
change::

    PYTHONPATH=src python tests/golden/generate_golden.py
"""

from __future__ import annotations

import json
import pathlib

from repro.baselines import (
    AWBGCNModel,
    EnGNModel,
    HyGCNModel,
    PyGCPUModel,
    PyGGPUModel,
    workload_from_plan,
)
from repro.datasets import build_dataset
from repro.models import MODEL_FAMILIES
from repro.plan import lower
from repro.sim import GNNIESimulator
from repro.sim.trace import result_to_json

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


def main() -> None:
    platforms = (PyGCPUModel(), PyGGPUModel(), HyGCNModel(), AWBGCNModel(), EnGNModel())
    baseline_snapshot: dict[str, dict] = {}
    for dataset, scale, seed in GOLDEN_DATASETS:
        graph = build_dataset(dataset, scale=scale, seed=seed)
        simulator = GNNIESimulator()
        for family in MODEL_FAMILIES:
            result = simulator.run(graph, family)
            path = GOLDEN_DIR / f"{dataset}_{family}.json"
            path.write_text(result_to_json(result) + "\n")
            print(f"wrote {path.name}: {result.total_cycles} cycles")

            plan = lower(family, graph)
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


if __name__ == "__main__":
    main()
