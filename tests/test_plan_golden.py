"""Golden snapshots: the full 5-dataset × 5-family matrix is pinned.

The cora/citeseer/pubmed JSON reports under ``tests/golden/`` were dumped
from the pre-refactor ``GNNIESimulator`` (direct family branches in the
engine) and pin the lower-then-execute path to the original behaviour; the
ppi/reddit reports were generated from the plan-IR engine and pin the two
scaled large-graph stand-ins against regression, completing the paper's
evaluation matrix.  The five ``*_ginconv`` reports were regenerated when
cache simulations became a pure function of the plan: GINConv aggregates
first, at the input width, and now sizes its own simulation instead of
reusing the one an earlier family primed.  ``baseline_platforms.json`` snapshots the shared
workload derivation and the five platform cost models for every pair.
Simulated results must match exactly (integers) or to 1e-9 relative
tolerance (energy/latency floats).
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

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
from repro.sim.trace import result_to_dict

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_DATASETS = (
    ("cora", 0.25, 1),
    ("citeseer", 0.25, 1),
    ("pubmed", 0.1, 1),
    ("ppi", 0.02, 1),
    ("reddit", 0.002, 1),
)
_WORKLOAD_TOTALS = (
    "dense_weighting_macs",
    "sparse_weighting_macs",
    "aggregation_ops",
    "aggregation_ops_aggregation_first",
    "attention_ops",
    "sampling_ops",
    "dram_bytes",
)


@pytest.fixture(scope="module")
def golden_graphs():
    return {
        dataset: build_dataset(dataset, scale=scale, seed=seed)
        for dataset, scale, seed in GOLDEN_DATASETS
    }


def _assert_close(got, want, path=""):
    """Exact match for ints/strings, 1e-9 relative tolerance for floats."""
    if isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: {got!r} != {want!r}"
        assert set(got) == set(want), f"{path}: keys {set(got) ^ set(want)}"
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length"
        for index, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{index}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


class TestGNNIEGoldenEquivalence:
    @pytest.mark.parametrize("dataset", [name for name, _, _ in GOLDEN_DATASETS])
    def test_all_families_match_snapshot(self, dataset, golden_graphs):
        graph = golden_graphs[dataset]
        simulator = GNNIESimulator()
        for family in MODEL_FAMILIES:
            got = result_to_dict(simulator.run(graph, family))
            want = json.loads((GOLDEN_DIR / f"{dataset}_{family}.json").read_text())
            _assert_close(got, want, f"{dataset}/{family}")


class TestBaselineGoldenEquivalence:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return json.loads((GOLDEN_DIR / "baseline_platforms.json").read_text())

    @pytest.fixture(scope="class")
    def platforms(self):
        return (PyGCPUModel(), PyGGPUModel(), HyGCNModel(), AWBGCNModel(), EnGNModel())

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    @pytest.mark.parametrize("dataset", [name for name, _, _ in GOLDEN_DATASETS])
    def test_workload_and_platforms_match_snapshot(
        self, dataset, family, golden_graphs, snapshot, platforms
    ):
        graph = golden_graphs[dataset]
        entry = snapshot[f"{dataset}_{family}"]
        plan = lower(family, graph)
        workload = workload_from_plan(plan, graph)
        for attribute in _WORKLOAD_TOTALS:
            assert getattr(workload, attribute) == entry[attribute], attribute
        for platform in platforms:
            if not platform.supports(family):
                assert platform.name not in entry["platforms"]
                continue
            result = platform.execute(plan, graph)
            want = entry["platforms"][platform.name]
            assert math.isclose(
                result.latency_seconds, want["latency_seconds"], rel_tol=1e-9
            )
            assert math.isclose(
                result.energy_joules, want["energy_joules"], rel_tol=1e-9
            )
