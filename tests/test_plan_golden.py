"""Golden snapshots: the full 5-dataset × 5-family matrix is pinned.

The cora/citeseer/pubmed JSON reports under ``tests/golden/`` were dumped
from the pre-plan-IR simulator (direct family branches in the engine) and
pin the lower-then-execute path to the original behaviour; the
ppi/reddit reports were generated from the plan-IR engine and pin the two
scaled large-graph stand-ins against regression, completing the paper's
evaluation matrix.  The five ``*_ginconv`` reports were regenerated when
cache simulations became a pure function of the plan: GINConv aggregates
first, at the input width, and now sizes its own simulation instead of
reusing the one an earlier family primed.  ``baseline_platforms.json`` snapshots the shared
workload derivation and the five platform cost models for every pair.
``idorder.json`` holds the 25 reports under vertex-id-order caching, the
only golden inferences that pay random DRAM accesses.
``gnnie_table_variants.json`` pins three cases on Cora 0.25 under the
default GNNIE table and under each entry's variant.  It was generated
with each variant bound as ``GNNIE_TABLE`` in every ``repro`` module and
priced on freshly built graphs; the executor now holds its table, and a
variant set on ``executor.table`` must reach those numbers on a graph
whose memos the default table already filled.
Simulated results must match exactly (integers) or to 1e-9 relative
tolerance (energy/latency floats).  Baseline latencies and energies must
equal the snapshot exactly: they are pure-Python float arithmetic over
integer operation counts, and JSON round-trips a double exactly, so any
change to a table entry or a cost formula shows here.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import fields, replace

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
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.models import MODEL_FAMILIES
from repro.plan import lower
from repro.scaleout import execute_scaleout
from repro.sim import GNNIEExecutor
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
#: Table entries that move no golden pair at ±10%.  Compute time exceeds
#: the memory floor by at least 57x on the CPU and 12x on the GPU, on every
#: family and Table II dataset at scale 1.0 (Reddit at 0.05), so no PyG
#: latency reads its memory bandwidth.  The GPU's bandwidth is the product
#: of two entries.
INERT_TABLE_ENTRIES = {
    ("PyG-CPU", "memory_bandwidth"),
    ("PyG-GPU", "hbm2_bandwidth"),
    ("PyG-GPU", "memory_utilization"),
}


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


def _priced(platform, graph, workload):
    result = platform.evaluate(graph, workload)
    return result.latency_seconds, result.energy_joules


class TestGNNIEGoldenEquivalence:
    @pytest.mark.parametrize("dataset", [name for name, _, _ in GOLDEN_DATASETS])
    def test_all_families_match_snapshot(self, dataset, golden_graphs):
        graph = golden_graphs[dataset]
        executor = GNNIEExecutor()
        for family in MODEL_FAMILIES:
            got = result_to_dict(executor.execute(lower(family, graph), graph))
            want = json.loads((GOLDEN_DIR / f"{dataset}_{family}.json").read_text())
            _assert_close(got, want, f"{dataset}/{family}")


class TestIdOrderGoldenEquivalence:
    def test_all_pairs_match_snapshot(self, golden_graphs):
        snapshot = json.loads((GOLDEN_DIR / "idorder.json").read_text())
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        executor = GNNIEExecutor(config)
        got = {
            f"{dataset}_{family}": result_to_dict(executor.execute(lower(family, graph), graph))
            for dataset, graph in golden_graphs.items()
            for family in MODEL_FAMILIES
        }
        assert sum(
            phase["dram_random_accesses"]
            for report in got.values()
            for layer in report["layers"]
            for phase in layer["phases"]
        ) > 0
        _assert_close(got, snapshot, "idorder")


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
            assert result.latency_seconds == want["latency_seconds"], platform.name
            assert result.energy_joules == want["energy_joules"], platform.name

    def test_every_table_entry_moves_a_golden_pair(self, golden_graphs, platforms):
        """Each entry of each platform table, scaled by 0.9 or 1.1, moves the
        platform's latency or energy on at least one golden pair, except the
        entries named in ``INERT_TABLE_ENTRIES``, which must move none."""
        workloads = [
            (graph, workload_from_plan(lower(family, graph), graph))
            for graph in golden_graphs.values()
            for family in MODEL_FAMILIES
        ]
        for platform in platforms:
            pairs = [pair for pair in workloads if platform.supports(pair[1].family)]
            priced = [_priced(platform, graph, workload) for graph, workload in pairs]
            for entry in fields(platform.table):
                moved = 0
                for factor in (0.9, 1.1):
                    variant = type(platform)()
                    value = getattr(platform.table, entry.name) * factor
                    variant.table = replace(platform.table, **{entry.name: value})
                    moved += sum(
                        _priced(variant, graph, workload) != before
                        for (graph, workload), before in zip(pairs, priced)
                    )
                label = (platform.name, entry.name)
                if label in INERT_TABLE_ENTRIES:
                    assert moved == 0, f"{label} moves {moved} pricings; it is not inert"
                else:
                    assert moved > 0, f"{label} moves no golden pair"


def _table_variants():
    """Each entry of GNNIE's table with its variant table: the entry +1
    (integer) or x1.1 (float)."""
    for entry in fields(GNNIE_TABLE):
        value = getattr(GNNIE_TABLE, entry.name)
        value = value + 1 if isinstance(value, int) else value * 1.1
        yield entry.name, replace(GNNIE_TABLE, **{entry.name: value})


def _variant_cases(executor, graph):
    """GAT, GCN under id-order caching and GCN on 2 chips: the numbers
    ``gnnie_table_variants.json`` pins for each."""
    idorder = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
    gcn = lower("gcn", graph)
    cases = {
        "gat": (executor.execute(lower("gat", graph), graph), executor.config),
        "gcn_idorder": (executor.execute(gcn, graph, idorder), idorder),
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


class TestGNNIETableVariants:
    def test_every_table_variant_on_the_executor_matches_its_pin(self):
        """Each variant set on ``executor.table`` prices the graph the
        default table already priced to the variant's pinned numbers: no
        memo hands one table's price to another.  The input-buffer energy
        variant is the pin of ``buffer_energy`` reading the table it is
        given."""
        pins = json.loads((GOLDEN_DIR / "gnnie_table_variants.json").read_text())
        assert len(pins) == 1 + len(fields(GNNIE_TABLE))
        graph = build_dataset("cora", scale=0.25, seed=0)
        executor = GNNIEExecutor()
        assert _variant_cases(executor, graph) == pins["default"]
        for name, table in _table_variants():
            executor.table = table
            assert _variant_cases(executor, graph) == pins[name], name
        executor.table = GNNIE_TABLE
        assert _variant_cases(executor, graph) == pins["default"]
