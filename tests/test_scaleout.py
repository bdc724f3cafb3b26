"""Tests for multi-chip scale-out: partitioned execution, combine, sweep surface."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.analysis import roofline_analysis
from repro.datasets import build_dataset
from repro.graph import PARTITION_METHODS, Graph
from repro.hw import AcceleratorConfig
from repro.models import MODEL_FAMILIES
from repro.obs import Tracer
from repro.plan import HaloExchangeOp, lower
from repro.plan.executor import executor
from repro.scaleout import chip_subgraphs, execute_scaleout, partition_workload
from repro.sim import (
    GNNIEExecutor,
    PhaseResult,
    ScaleOutResult,
    phase_table,
    result_to_dict,
)
from repro.sim.batch import pricing_context
from repro.sweep import (
    ROW_FORMAT,
    ResultStore,
    ScenarioMatrix,
    SweepCell,
    run_batch_timed,
    run_sweep,
)


@pytest.fixture(scope="module")
def graph():
    return build_dataset("cora", scale=0.05, seed=0)


@pytest.fixture(scope="module")
def backend():
    return GNNIEExecutor()


class TestExecuteScaleout:
    def test_single_chip_is_byte_identical_for_every_family(self, graph, backend):
        for family in MODEL_FAMILIES:
            plan = lower(family, graph)
            plain = backend.execute(plan, graph, None)
            scaled = execute_scaleout(backend, plan, graph, None, chips=1)
            assert type(scaled) is type(plain)
            assert scaled.summary() == plain.summary()

    def test_multi_chip_returns_scaleout_result(self, graph, backend):
        plan = lower("gcn", graph)
        result = execute_scaleout(backend, plan, graph, None, chips=4)
        assert isinstance(result, ScaleOutResult)
        assert result.num_chips == 4
        assert len(result.chip_cycles) == 4
        assert result.halo_bytes > 0
        assert result.communication_cycles > 0
        # The fleet totals, rebuilt from the chips' own results.
        live = [chip for chip in result.chip_results if chip is not None]
        cycles = max(chip.global_preprocessing_cycles for chip in live)
        for layers in zip(*(chip.layers for chip in live)):
            cycles += max(layer.local_cycles for layer in layers)
            cycles += max(layer.communication_cycles for layer in layers)
        assert result.total_cycles == cycles
        assert result.total_mac_operations == sum(chip.total_mac_operations for chip in live)
        assert result.total_dram_bytes == sum(chip.total_dram_bytes for chip in live)
        parts = [name for name in result.energy.as_dict() if name != "total_pj"]
        assert result.energy.as_dict() == {
            **{name: sum(chip.energy.as_dict()[name] for chip in live) for name in parts},
            "total_pj": result.energy.total_pj,
        }

    def test_phase_attribution_sums_to_total_cycles(self, graph, backend):
        plan = lower("gat", graph)
        result = execute_scaleout(backend, plan, graph, None, chips=3)
        assert (
            result.weighting_cycles
            + result.aggregation_cycles
            + result.communication_cycles
            + result.global_preprocessing_cycles
            == result.total_cycles
        )

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_fleet_layers_explain_the_fleet_totals(self, graph, backend, family):
        result = execute_scaleout(backend, lower(family, graph), graph, None, chips=4)
        report = result_to_dict(result)
        layers = report["layers"]
        assert len(layers) == len(result.chip_results[0].layers) > 0
        assert (
            sum(layer["total_cycles"] for layer in layers)
            + report["global_preprocessing_cycles"]
            == report["total_cycles"]
            == result.total_cycles
        )
        assert (
            sum(phase["mac_operations"] for layer in layers for phase in layer["phases"])
            == result.total_mac_operations
        )
        fleet_phases = [
            (layer.layer_index, phase.name) for layer in result.layers for phase in layer.phases()
        ]
        assert [(row["layer"], row["phase"]) for row in phase_table(result)] == fleet_phases
        assert [
            (phase.layer_index, phase.phase) for phase in roofline_analysis(result).phases
        ] == fleet_phases

    def test_fleet_phase_takes_critical_cycles_and_summed_counts(self, graph, backend):
        result = execute_scaleout(backend, lower("gat", graph), graph, None, chips=3)
        live = [chip for chip in result.chip_results if chip is not None]
        assert len(result.layers) == len(live[0].layers) > 0
        cycle_fields = {
            "compute_cycles",
            "memory_stall_cycles",
            "sfu_cycles",
            "preprocessing_cycles",
            "streaming_memory_cycles",
        }
        for index, layer in enumerate(result.layers):
            chip_layers = [chip.layers[index] for chip in live]
            critical = max(chip_layers, key=lambda chip_layer: chip_layer.local_cycles)
            assert layer.communication_cycles == max(
                chip_layer.communication_cycles for chip_layer in chip_layers
            )
            for position, phase in enumerate(layer.phases()):
                chip_phases = [chip_layer.phases()[position] for chip_layer in chip_layers]
                for item in fields(PhaseResult)[1:]:
                    if item.name in cycle_fields:
                        expected = getattr(critical.phases()[position], item.name)
                    else:
                        expected = sum(getattr(chip_phase, item.name) for chip_phase in chip_phases)
                    assert getattr(phase, item.name) == expected, (index, phase.name, item.name)

    def test_max_chip_cycles_shrink_while_halo_grows(self, graph, backend):
        plan = lower("gcn", graph)
        previous_max = None
        previous_halo = None
        for chips in (1, 2, 4, 8):
            result = execute_scaleout(backend, plan, graph, None, chips=chips)
            peak = max(getattr(result, "chip_local_cycles", (result.total_cycles,)))
            halo = getattr(result, "halo_bytes", 0)
            if previous_max is not None:
                assert peak <= previous_max
                assert halo >= previous_halo
            previous_max, previous_halo = peak, halo

    def test_more_chips_than_vertices_skips_empty_partitions(self, backend):
        tiny = build_dataset("cora", scale=0.002, seed=0)  # a handful of vertices
        plan = lower("gcn", tiny)
        chips = tiny.num_vertices + 3
        result = execute_scaleout(backend, plan, tiny, None, chips=chips)
        assert result.num_chips == chips
        assert result.chip_cycles.count(0) >= 3
        assert result.total_cycles > 0

    def test_unsupported_backend_raises(self, graph):
        plan = lower("gcn", graph)
        with pytest.raises(ValueError, match="scale-out"):
            execute_scaleout(executor("pyg-cpu"), plan, graph, None, chips=2)

    @pytest.mark.parametrize("chips", [0, -3])
    @pytest.mark.parametrize("name", ["gnnie", "awb-gcn"])
    def test_non_positive_chip_count_raises_before_the_backend_check(self, graph, name, chips):
        plan = lower("gcn", graph)
        with pytest.raises(ValueError, match="num_parts must be at least 1"):
            execute_scaleout(executor(name), plan, graph, None, chips=chips)

    @pytest.mark.parametrize("chips", [1, 2])
    def test_unknown_method_raises_at_every_chip_count(self, graph, backend, chips):
        plan = lower("gcn", graph)
        with pytest.raises(ValueError, match="unknown partition method 'bogus'"):
            execute_scaleout(backend, plan, graph, None, chips=chips, method="bogus")

    def test_summary_gains_scaleout_keys_only_when_multi_chip(self, graph, backend):
        plan = lower("gcn", graph)
        single = execute_scaleout(backend, plan, graph, None, chips=1).summary()
        multi = execute_scaleout(backend, plan, graph, None, chips=4).summary()
        scaleout_keys = {
            "chips",
            "partition_method",
            "chip_imbalance",
            "communication_cycles",
            "halo_vertices",
            "halo_bytes",
        }
        assert scaleout_keys.isdisjoint(single)
        assert scaleout_keys <= set(multi)
        assert multi["chips"] == 4

    def test_traced_run_emits_one_span_per_live_chip(self, graph):
        backend = GNNIEExecutor()
        backend.tracer = Tracer()
        plan = lower("gcn", graph)
        execute_scaleout(backend, plan, graph, None, chips=3)
        chip_spans = [r for r in backend.tracer.records if r.name == "chip"]
        assert len(chip_spans) == 3
        assert any(r.name == "op:halo_exchange" for r in backend.tracer.records)

    def test_traced_run_emits_one_partition_span_per_call(self, graph):
        # A fresh Graph starts with an empty pricing context: the first call
        # partitions it, the second reuses the memoized partition.
        fresh = Graph(
            adjacency=graph.adjacency,
            features=graph.features,
            name=graph.name,
            num_label_classes=graph.num_label_classes,
        )
        backend = GNNIEExecutor()
        backend.tracer = Tracer()
        plan = lower("gcn", fresh)
        for _ in range(2):
            execute_scaleout(backend, plan, fresh, None, chips=3, method="balanced")
        partition = partition_workload(fresh, plan, 3, method="balanced").partition
        spans = [r for r in backend.tracer.records if r.name == "partition"]
        # No category "op" and no cycles: op-span cycles still sum to the total.
        assert [(span.category, span.attrs) for span in spans] == [
            (
                "partition",
                {
                    "chips": 3,
                    "method": "balanced",
                    "partition_memo": memo,
                    "cut_edges": partition.cut_edges,
                    "halo_vertices": partition.total_halo_vertices(),
                },
            )
            for memo in ("run", "memo_hit")
        ]

    def test_partition_is_memoized_per_graph(self, graph, backend):
        plan = lower("gcn", graph)
        first = partition_workload(graph, plan, 4)
        second = partition_workload(graph, plan, 4)
        assert first.partition is second.partition
        assert (4, "chunk") in pricing_context(graph).partitions

    def test_chunk_chips_view_parent_feature_rows(self, graph):
        partition, chip_graphs = chip_subgraphs(graph, 3, method="chunk")
        for part, chip_graph in zip(partition.parts, chip_graphs):
            assert np.shares_memory(chip_graph.features, graph.features)
            assert not chip_graph.features.flags.writeable
            np.testing.assert_array_equal(chip_graph.features, graph.features[part])
        assert graph.features.flags.writeable

    def test_balanced_chips_hold_parent_feature_rows(self, graph):
        partition, chip_graphs = chip_subgraphs(graph, 3, method="balanced")
        for part, chip_graph in zip(partition.parts, chip_graphs):
            np.testing.assert_array_equal(chip_graph.features, graph.features[part])

    def test_chip_plans_splice_halo_before_aggregation(self, graph):
        plan = lower("gcn", graph)
        workload = partition_workload(graph, plan, 2)
        for chip, chip_plan in enumerate(workload.chip_plans):
            for layer in chip_plan.layers:
                kinds = [type(op).__name__ for op in layer.ops]
                if "AggregationOp" in kinds:
                    halo_at = kinds.index("HaloExchangeOp")
                    assert halo_at == kinds.index("AggregationOp") - 1
                    op = layer.ops[halo_at]
                    assert isinstance(op, HaloExchangeOp)
                    assert op.halo_vertices == workload.partition.halo_counts[chip]


class TestScaleoutMatrix:
    def test_chips_axis_expands_only_gnnie(self, tmp_path):
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], chips=[1, 4], scale=0.05
        )
        cells = matrix.cells()
        assert len(matrix) == len(cells) == 3
        gnnie_chips = sorted(c.chips for c in cells if c.backend == "gnnie")
        baseline_chips = [c.chips for c in cells if c.backend == "pyg-cpu"]
        assert gnnie_chips == [1, 4]
        assert baseline_chips == [1]
        # Resuming the chips-axis sweep executes nothing and serves the same rows.
        store = tmp_path / "chips.jsonl"
        first = run_sweep(matrix, store=ResultStore(store), jobs=1)
        resumed = run_sweep(matrix, store=ResultStore(store), jobs=1)
        assert (first.executed, resumed.executed, resumed.skipped) == (3, 0, 3)
        assert json.dumps(resumed.rows, sort_keys=True) == json.dumps(first.rows, sort_keys=True)

    def test_single_chip_cells_match_cells_without_the_axis(self):
        matrix = ScenarioMatrix.build(["cora"], ["gcn"], chips=[1])
        plain = ScenarioMatrix.build(["cora"], ["gcn"])
        assert [c.key() for c in matrix.cells()] == [c.key() for c in plain.cells()]
        assert matrix.cells()[0].spec()["chips"] == 1

    def test_chip_count_is_hashed_into_the_cell_key(self):
        cells = ScenarioMatrix.build(["cora"], ["gcn"], chips=[1, 2, 4]).cells()
        assert len({c.key() for c in cells}) == 3
        multi = [c for c in cells if c.chips != 1]
        assert all(c.spec()["chips"] == c.chips for c in multi)
        assert multi[0].describe().endswith(" x2")


def _row(cell: SweepCell, graph) -> dict:
    """One cell's row, run as a batch of one."""
    [(row, _, _)] = run_batch_timed([cell], graph)
    return row


class TestScaleoutRows:
    def _cell(self, **overrides) -> SweepCell:
        values = dict(
            dataset="cora",
            scale=0.05,
            seed=0,
            family="gcn",
            backend="gnnie",
            config=AcceleratorConfig(),
            chips=4,
        )
        values.update(overrides)
        return SweepCell(**values)

    def test_multi_chip_row_carries_chips_and_scaleout_metrics(self, graph):
        row = _row(self._cell(), graph)
        assert row["row_format"] == ROW_FORMAT
        assert row["chips"] == 4
        metrics = row["metrics"]
        assert metrics["chips"] == 4
        assert metrics["halo_bytes"] > 0
        assert metrics["communication_cycles"] > 0
        assert metrics["chip_imbalance"] >= 1.0
        # Fleet silicon: the area column prices N chips.
        single = _row(self._cell(chips=1), graph)
        assert metrics["area_mm2"] == pytest.approx(4 * single["metrics"]["area_mm2"])

    def test_single_chip_row_matches_a_row_without_the_axis(self, graph):
        with_axis = _row(self._cell(chips=1), graph)
        plain = _row(
            SweepCell(
                dataset="cora",
                scale=0.05,
                seed=0,
                family="gcn",
                backend="gnnie",
                config=AcceleratorConfig(),
            ),
            graph,
        )
        assert json.dumps(with_axis, sort_keys=True) == json.dumps(plain, sort_keys=True)
        assert with_axis["chips"] == 1

    def test_multi_chip_cell_on_baseline_backend_is_unsupported(self, graph):
        row = _row(self._cell(backend="pyg-cpu"), graph)
        assert row["supported"] is False
        assert row["metrics"] is None

    def test_batch_path_matches_scalar_path(self, graph):
        """Sharing a group never changes a row: each reference cell runs
        alone on a freshly built graph, so nothing is shared."""
        cells = [self._cell(chips=1), self._cell(chips=4)]
        batch_rows = [row for row, _, _ in run_batch_timed(cells, graph)]
        alone_rows = [
            _row(cell, build_dataset("cora", scale=0.05, seed=0)) for cell in cells
        ]
        assert [json.dumps(r, sort_keys=True) for r in batch_rows] == [
            json.dumps(r, sort_keys=True) for r in alone_rows
        ]


class TestScaleoutAggregation:
    def test_multi_chip_reference_never_pairs_with_single_chip_baseline(self, graph):
        """``chips`` is part of the speedup pairing key.

        A store holding single- and multi-chip GNNIE rows must pair a
        single-chip baseline only against the single-chip reference — the
        fleet row is a different workload configuration.
        """
        from repro.analysis import speedup_rows

        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], scale=0.05, chips=[1, 4]
        )
        rows = [_row(cell, graph) for cell in matrix.cells()]
        reference = next(
            r for r in rows if r["backend"] == "gnnie" and r["chips"] == 1
        )
        baseline = next(r for r in rows if r["backend"] == "pyg-cpu")
        entries = speedup_rows(rows)
        assert len(entries) == 1
        assert entries[0]["speedup"] == pytest.approx(
            baseline["metrics"]["latency_seconds"]
            / reference["metrics"]["latency_seconds"]
        )



#: sha256 of every fleet number on Cora 0.25 (seed 0): each family at 2, 3
#: and 16 chips under both partition methods, plus each family's 4-chip
#: sweep row (35 cases).
FLEET_DIGEST = "dcadc25aa9c89430c5185c1cfb98b00cbe284a1e8f9857975c306ac372b784a7"


def test_every_fleet_number_is_pinned():
    graph = build_dataset("cora", scale=0.25, seed=0)
    backend = GNNIEExecutor()
    cases = {}
    for family in MODEL_FAMILIES:
        plan = lower(family, graph)
        for chips in (2, 3, 16):
            for method in PARTITION_METHODS:
                result = execute_scaleout(backend, plan, graph, None, chips=chips, method=method)
                cases[f"{family}/x{chips}/{method}"] = {
                    "summary": result.summary(),
                    "energy": result.energy.as_dict(),
                    "global_preprocessing_cycles": result.global_preprocessing_cycles,
                    "chip_cycles": result.chip_cycles,
                    "chip_local_cycles": result.chip_local_cycles,
                }
        cell = SweepCell(
            dataset="cora",
            scale=0.25,
            seed=0,
            family=family,
            backend="gnnie",
            config=AcceleratorConfig(),
            chips=4,
        )
        cases[f"{family}/x4/sweep"] = _row(cell, graph)
    assert len(cases) == 35
    digest = hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()
    assert digest == FLEET_DIGEST
