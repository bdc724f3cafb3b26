"""Tests for multi-chip scale-out: partitioned execution, combine, sweep surface."""

from __future__ import annotations

import json

import pytest

from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig
from repro.models import MODEL_FAMILIES
from repro.obs import Tracer
from repro.plan import HaloExchangeOp, lower
from repro.plan.executor import executor
from repro.scaleout import execute_scaleout, partition_workload
from repro.sim import GNNIEExecutor, ScaleOutResult, results_to_csv
from repro.sim.batch import pricing_context
from repro.sweep import (
    SCALEOUT_ROW_FORMAT,
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
        assert result.total_cycles == result.combined_cycles

    def test_phase_attribution_sums_to_combined_cycles(self, graph, backend):
        plan = lower("gat", graph)
        result = execute_scaleout(backend, plan, graph, None, chips=3)
        assert (
            result.weighting_cycles
            + result.aggregation_cycles
            + result.communication_cycles
            + result.global_preprocessing_cycles
            == result.total_cycles
        )

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

    def test_partition_is_memoized_per_graph(self, graph, backend):
        plan = lower("gcn", graph)
        first = partition_workload(graph, plan, 4)
        second = partition_workload(graph, plan, 4)
        assert first.partition is second.partition
        assert (4, "chunk") in pricing_context(graph).partitions

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
    def test_chips_axis_expands_only_config_backends(self, tmp_path):
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

    def test_single_chip_cells_keep_pre_scaleout_keys(self):
        matrix = ScenarioMatrix.build(["cora"], ["gcn"], chips=[1])
        legacy = ScenarioMatrix.build(["cora"], ["gcn"])
        assert [c.key() for c in matrix.cells()] == [c.key() for c in legacy.cells()]
        assert "chips" not in matrix.cells()[0].spec()

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

    def test_multi_chip_row_carries_scaleout_format_and_metrics(self, graph):
        row = _row(self._cell(), graph)
        assert row["row_format"] == SCALEOUT_ROW_FORMAT
        assert row["chips"] == 4
        metrics = row["metrics"]
        assert metrics["chips"] == 4
        assert metrics["halo_bytes"] > 0
        assert metrics["communication_cycles"] > 0
        assert metrics["chip_imbalance"] >= 1.0
        # Fleet silicon: the area column prices N chips.
        single = _row(self._cell(chips=1), graph)
        assert metrics["area_mm2"] == pytest.approx(4 * single["metrics"]["area_mm2"])

    def test_single_chip_row_is_byte_identical_to_legacy(self, graph):
        with_axis = _row(self._cell(chips=1), graph)
        legacy = _row(
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
        assert json.dumps(with_axis, sort_keys=True) == json.dumps(legacy, sort_keys=True)
        assert "chips" not in with_axis

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
            r for r in rows if r["backend"] == "gnnie" and r.get("chips", 1) == 1
        )
        baseline = next(r for r in rows if r["backend"] == "pyg-cpu")
        entries = speedup_rows(rows)
        assert len(entries) == 1
        assert entries[0]["speedup"] == pytest.approx(
            baseline["metrics"]["latency_seconds"]
            / reference["metrics"]["latency_seconds"]
        )


class TestScaleoutCsv:
    def test_mixed_results_append_scaleout_columns(self, graph, backend):
        plan = lower("gcn", graph)
        plain = backend.execute(plan, graph, None)
        scaled = execute_scaleout(backend, plan, graph, None, chips=2)
        csv_plain = results_to_csv([plain])
        csv_mixed = results_to_csv([plain, scaled])
        header_plain = csv_plain.splitlines()[0]
        header_mixed = csv_mixed.splitlines()[0]
        assert header_mixed.startswith(header_plain)
        assert "halo_bytes" in header_mixed
        # Plain-only exports keep their exact pre-scale-out bytes.
        assert csv_plain == results_to_csv([plain])
