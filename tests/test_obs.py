"""Tests for ``repro.obs``: tracer, metrics, exporters, schema, wiring.

The two contracts that matter most:

* **Disabled is free and invisible** — with the default ``NULL_TRACER`` /
  ``NULL_METRICS``, every instrumented path produces byte-identical results
  and the number of no-op span calls stays bounded (it scales with layers
  and ops, never with vertices or edges).
* **Enabled is consistent** — in every layer the op spans of each phase
  slot sum to that phase's final cycles, wherever the overlap rule charged
  stall; the per-span modeled-cycle attribution of one inference sums
  exactly to ``result.total_cycles``; and the Chrome-trace
  export always satisfies the trace-event invariants the schema validator
  checks (matched B/E pairs, monotonic timestamps).
"""

from __future__ import annotations

import copy
import json
from collections import defaultdict

import pytest

from repro.hw import AcceleratorConfig
from repro.sweep import ScenarioMatrix, run_batch_timed, run_sweep
from repro.sweep.store import ResultStore, canonical_row
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    SpanRecord,
    Tracer,
    assert_valid_chrome_trace,
    chrome_trace_document,
    chrome_trace_events,
    flame_rows,
    metrics_to_csv,
    metrics_to_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.plan import AggregationOp, InferencePlan, PlanLayer, WeightingOp, lower
from repro.scaleout import execute_scaleout, partition_workload
from repro.sim import GNNIEExecutor
from repro.sim.trace import result_to_json


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_spans_nest_and_record_parents(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child", category="op") as child:
                pass
        records = {record.name: record for record in tracer.records}
        assert records["child"].parent_id == records["root"].span_id
        assert records["root"].parent_id is None
        assert records["child"].category == "op"
        # Inner spans complete (and are appended) first.
        assert [r.name for r in tracer.records] == ["child", "root"]
        del root, child

    def test_set_after_exit_attaches_final_attribution(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            span.set(cycles=10)
        span.set(cycles=42, dram_bytes=7)  # post-hoc correction
        assert tracer.records[0].attrs == {"cycles": 42, "dram_bytes": 7}

    def test_timestamps_are_ordered(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s
        assert inner.duration_s >= 0

    def test_absorb_merges_dict_segments_from_other_processes(self):
        tracer = Tracer()
        foreign = SpanRecord(
            span_id=1, parent_id=None, name="cell", category="cell",
            start_s=1.0, end_s=2.0, pid=9999, attrs={"cycles": 5},
        )
        tracer.absorb([foreign.as_dict()])
        assert tracer.records[0] == foreign

    def test_record_roundtrips_through_dict(self):
        record = SpanRecord(
            span_id=3, parent_id=1, name="op", category="op",
            start_s=0.5, end_s=0.75, pid=42, attrs={"macs": 10},
        )
        assert SpanRecord.from_dict(record.as_dict()) == record


class TestNullTracer:
    def test_is_disabled_and_records_nothing(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", category="op", cycles=1) as span:
            span.set(cycles=99)
        assert list(NULL_TRACER.records) == []

    def test_span_returns_one_shared_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_accumulates_and_labels_separate_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits", policy="lru").inc()
        registry.counter("hits", policy="lru").inc(2)
        registry.counter("hits", policy="fifo").inc(5)
        values = {
            (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
            for row in registry.snapshot()
        }
        assert values[("hits", (("policy", "lru"),))] == 3
        assert values[("hits", (("policy", "fifo"),))] == 5

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("jobs").set(4)
        registry.gauge("jobs").set(2)
        (row,) = registry.snapshot()
        assert row["kind"] == "gauge" and row["value"] == 2

    def test_snapshot_is_sorted_and_merge_adds_counters(self):
        a = MetricsRegistry()
        a.counter("z").inc(1)
        a.counter("a").inc(1)
        assert [row["name"] for row in a.snapshot()] == ["a", "z"]
        b = MetricsRegistry()
        b.counter("z").inc(10)
        a.merge(b.snapshot())
        values = {row["name"]: row["value"] for row in a.snapshot()}
        assert values == {"a": 1, "z": 11}

    def test_null_registry_is_disabled_and_empty(self):
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(3)
        assert NULL_METRICS.enabled is False
        assert NULL_METRICS.snapshot() == []

    def test_exports(self):
        registry = MetricsRegistry()
        registry.counter("hits", policy="lru").inc(3)
        document = json.loads(metrics_to_json(registry))
        assert document["metrics"][0]["value"] == 3
        csv_text = metrics_to_csv(registry)
        assert "hits,counter,policy=lru,3" in csv_text


# ---------------------------------------------------------------------- #
# Chrome-trace export + schema
# ---------------------------------------------------------------------- #
def _sample_spans():
    tracer = Tracer()
    with tracer.span("inference", category="inference"):
        with tracer.span("layer0", category="layer", layer=0):
            with tracer.span("op:weighting", category="op", layer=0, cycles=5):
                pass
        with tracer.span("layer1", category="layer", layer=1):
            pass
    return tracer.records


class TestChromeTraceExport:
    def test_events_validate_and_pair_up(self):
        document = chrome_trace_document(_sample_spans())
        assert_valid_chrome_trace(document)
        begins = [e for e in document["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in document["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) == 4
        assert {e["name"] for e in begins} == {
            "inference", "layer0", "layer1", "op:weighting",
        }

    def test_layer_track_routes_spans_to_layer_tids(self):
        events = chrome_trace_events(_sample_spans(), track="layer")
        tid_of = {e["name"]: e["tid"] for e in events if e["ph"] == "B"}
        assert tid_of["inference"] == 0
        assert tid_of["layer0"] == 1 and tid_of["op:weighting"] == 1
        assert tid_of["layer1"] == 2
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"inference", "layer 0", "layer 1"} <= thread_names

    def test_empty_span_list_exports_cleanly(self):
        assert chrome_trace_events([]) == []
        assert_valid_chrome_trace(chrome_trace_document([]))

    def test_unknown_track_mode_rejected(self):
        with pytest.raises(ValueError, match="track"):
            chrome_trace_events(_sample_spans(), track="thread")

    def test_write_chrome_trace_produces_loadable_json(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "trace.json", _sample_spans(), metadata={"dataset": "CR"}
        )
        document = json.loads(path.read_text())
        assert document["metadata"]["dataset"] == "CR"
        assert document["displayTimeUnit"] == "ms"
        assert_valid_chrome_trace(document)

    def test_attrs_ride_in_event_args(self):
        events = chrome_trace_events(_sample_spans())
        (weighting,) = [
            e for e in events if e["ph"] == "B" and e["name"] == "op:weighting"
        ]
        assert weighting["args"]["cycles"] == 5


class TestSchemaValidator:
    def test_rejects_unmatched_end(self):
        document = {
            "traceEvents": [
                {"ph": "E", "name": "x", "pid": 0, "tid": 0, "ts": 1.0},
            ]
        }
        assert any("E" in problem for problem in validate_chrome_trace(document))
        with pytest.raises(AssertionError, match="matching B"):
            assert_valid_chrome_trace(document)

    def test_rejects_nonmonotonic_timestamps(self):
        document = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 5.0},
                {"ph": "E", "name": "a", "pid": 0, "tid": 0, "ts": 1.0},
            ]
        }
        assert validate_chrome_trace(document)

    def test_rejects_unclosed_begin(self):
        document = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 1.0},
            ]
        }
        assert any("never closed" in p for p in validate_chrome_trace(document))

    def test_rejects_missing_ph_and_non_dict_document(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"name": "x"}]}) != []


class TestFlameRows:
    def test_aggregates_by_name_path(self):
        rows = flame_rows(_sample_spans())
        by_path = {row["span"]: row for row in rows}
        assert by_path["inference/layer0/op:weighting"]["cycles"] == 5
        assert by_path["inference/layer0/op:weighting"]["calls"] == 1
        assert set(by_path) == {
            "inference",
            "inference/layer0",
            "inference/layer0/op:weighting",
            "inference/layer1",
        }
        # Deepest modeled spender first.
        assert rows[0]["span"] == "inference/layer0/op:weighting"


# ---------------------------------------------------------------------- #
# Executor instrumentation: attribution + zero-cost disabled path
# ---------------------------------------------------------------------- #
#: The phase slot each op span's cycles belong to (``op:sample`` and the
#: global ``preprocess:degree_binning`` span price nothing in a layer).
_OP_SLOTS = {
    "op:weighting": "weighting",
    "op:dense_matmul": "weighting",
    "op:attention": "attention",
    "op:aggregation": "aggregation",
    "op:halo_exchange": "communication",
}


def _sgc_plan(graph) -> InferencePlan:
    """README's hand-built SGC plan: two aggregation ops in one layer."""
    in_features, out_features = graph.feature_length, graph.num_label_classes
    ops = (
        WeightingOp(in_features, out_features, is_input_layer=True),
        AggregationOp(in_features, out_features),
        AggregationOp(out_features, out_features),
    )
    return InferencePlan(
        "sgc", in_features, out_features, layers=(PlanLayer(0, in_features, out_features, ops),)
    )


def _slot_sums(records, inference_id, result) -> list[tuple]:
    """``(layer, slot, op-span cycle sum, expected cycles)`` for every phase
    slot with an op span under one inference span; asserts each layer span's
    ``cycles`` on the way."""
    children = defaultdict(list)
    for record in sorted(records, key=lambda record: record.span_id):
        children[record.parent_id].append(record)
    layer_spans = [r for r in children[inference_id] if r.category == "layer"]
    assert len(layer_spans) == len(result.layers)
    sums = []
    for layer_span, layer in zip(layer_spans, result.layers):
        assert layer_span.attrs["cycles"] == layer.total_cycles
        ops = [r for r in children[layer_span.span_id] if r.name in _OP_SLOTS]
        spent = defaultdict(int)
        for op in ops:
            spent[_OP_SLOTS[op.name]] += op.attrs["cycles"]
        expected = {
            slot: phase.total_cycles
            for slot in ("weighting", "attention", "aggregation", "communication")
            if (phase := getattr(layer, slot)) is not None
        }
        last = _OP_SLOTS[ops[-1].name]
        for slot in expected.keys() - spent.keys():
            expected[last] += expected.pop(slot)
        sums += [(layer.layer_index, slot, spent[slot], expected[slot]) for slot in spent]
    return sums


class TestExecutorInstrumentation:
    @pytest.mark.parametrize("family", ["gcn", "gat", "graphsage", "diffpool"])
    def test_op_span_cycles_sum_to_total_cycles(self, small_cora, family):
        tracer = Tracer()
        result = GNNIEExecutor(tracer=tracer).execute(lower(family, small_cora), small_cora)
        op_cycles = sum(
            record.attrs.get("cycles", 0)
            for record in tracer.records
            if record.category == "op"
        )
        assert op_cycles == result.total_cycles

    @pytest.mark.parametrize(
        "case",
        ["gcn", "gcn-idorder", "gat-idorder", "diffpool", "sgc-idorder", "gcn-4chips"],
    )
    def test_op_spans_sum_to_their_phase_slot(self, small_cora, case):
        """Per layer, the op spans of each phase slot sum to that phase's
        final ``total_cycles``, exposed memory stall included, wherever the
        overlap rule charged it; a slot no op lowered to (DiffPool's
        coarsening Aggregation) counts toward the layer's last op."""
        family, _, variant = case.partition("-")
        config = AcceleratorConfig(enable_degree_aware_caching=variant != "idorder")
        plan = _sgc_plan(small_cora) if family == "sgc" else lower(family, small_cora)
        tracer = Tracer()
        backend = GNNIEExecutor(config, tracer=tracer)
        if variant == "4chips":
            workload = partition_workload(small_cora, plan, 4)
            execute_scaleout(backend, plan, small_cora, chips=4)
            chips = {r.span_id: r.attrs["chip"] for r in tracer.records if r.category == "chip"}
            runs = {
                r.span_id: GNNIEExecutor(config).execute(
                    workload.chip_plans[chips[r.parent_id]],
                    workload.chip_graphs[chips[r.parent_id]],
                )
                for r in tracer.records
                if r.category == "inference"
            }
            assert len(runs) == 4
        else:
            result = backend.execute(plan, small_cora)
            (root,) = [r for r in tracer.records if r.category == "inference"]
            runs = {root.span_id: result}
        checked = []
        for span_id, result in runs.items():
            checked += _slot_sums(tracer.records, span_id, result)
        assert checked
        assert [entry for entry in checked if entry[2] != entry[3]] == []

    def test_root_span_carries_whole_run_attribution(self, small_cora):
        tracer = Tracer()
        result = GNNIEExecutor(tracer=tracer).execute(lower("gcn", small_cora), small_cora)
        (root,) = [r for r in tracer.records if r.category == "inference"]
        assert root.attrs["cycles"] == result.total_cycles
        assert root.attrs["mac_operations"] == result.total_mac_operations
        assert root.attrs["dram_bytes"] == result.total_dram_bytes
        assert root.attrs["energy_pj"] == pytest.approx(result.energy.total_pj)

    def test_layer_spans_cover_every_layer(self, small_cora):
        tracer = Tracer()
        result = GNNIEExecutor(tracer=tracer).execute(lower("gcn", small_cora), small_cora)
        layers = [r for r in tracer.records if r.category == "layer"]
        assert sorted(r.attrs["layer"] for r in layers) == [
            layer.layer_index for layer in result.layers
        ]

    def test_traced_result_is_byte_identical_to_untraced(self, small_cora):
        baseline = GNNIEExecutor().execute(lower("gcn", small_cora), small_cora)
        traced = GNNIEExecutor(tracer=Tracer()).execute(lower("gcn", small_cora), small_cora)
        assert result_to_json(traced) == result_to_json(baseline)

    def test_default_tracer_is_the_shared_null_tracer(self):
        executor = GNNIEExecutor()
        assert executor.tracer is NULL_TRACER
        assert executor.metrics is NULL_METRICS

    def test_disabled_span_call_count_is_bounded(self, small_cora):
        """No-op span calls scale with layers/ops, never vertices/edges."""

        class CountingNullTracer(NullTracer):
            def __init__(self):
                self.calls = 0

            def span(self, name, category="span", **attrs):
                self.calls += 1
                return super().span(name, category, **attrs)

        counting = CountingNullTracer()
        result = GNNIEExecutor(tracer=counting).execute(lower("gcn", small_cora), small_cora)
        # 1 inference + 1 preprocess + per layer: 1 layer span + <= 4 ops.
        assert counting.calls <= 2 + 5 * len(result.layers)

    def test_chrome_trace_of_real_inference_validates(self, small_cora, tmp_path):
        tracer = Tracer()
        GNNIEExecutor(tracer=tracer).execute(lower("gat", small_cora), small_cora)
        for track in ("pid", "layer"):
            assert_valid_chrome_trace(chrome_trace_document(tracer.records, track=track))

    def test_aggregation_spans_show_cache_simulation_memo_hits(self, small_cora):
        """GCN's two layers aggregate over one adjacency: layer 0 runs the
        cache simulation and layer 1 reuses it.  Each span says which, and
        carries that simulation's Round, iteration, deadlock and vertex-fetch
        counts, its refetch factor and its α-writeback bytes."""
        graph = copy.deepcopy(small_cora)  # a fresh, empty pricing context
        tracer = Tracer()
        GNNIEExecutor(tracer=tracer).execute(lower("gcn", graph), graph)
        spans = sorted(
            (record for record in tracer.records if record.name == "op:aggregation"),
            key=lambda record: record.attrs["layer"],
        )
        (simulation,) = graph.pricing.cache_results.values()
        assert simulation.num_iterations > 0
        assert [span.attrs["cache_sim"] for span in spans] == ["run", "memo_hit"]
        for span in spans:
            assert (span.attrs["rounds"], span.attrs["iterations"], span.attrs["deadlocks"]) == (
                simulation.num_rounds,
                simulation.num_iterations,
                simulation.deadlock_events,
            )
            assert span.attrs["vertex_fetches"] == simulation.vertex_fetches
            assert span.attrs["refetch"] == simulation.vertex_fetches / graph.num_vertices
            assert span.attrs["refetch"] >= 1.0
            assert span.attrs["alpha_writeback_bytes"] == simulation.alpha_writeback_bytes

    def test_weighting_spans_show_phase_memo_hits(self, small_cora):
        """The Weighting phase memo ignores γ, so a second GCN run on one
        graph at another γ prices neither layer's Weighting again.  The first
        run's spans say so with ``run``, the second's with ``memo_hit``."""
        graph = copy.deepcopy(small_cora)  # a fresh, empty pricing context
        tracer = Tracer()
        plan = lower("gcn", graph)
        GNNIEExecutor(tracer=tracer).execute(plan, graph)
        GNNIEExecutor(AcceleratorConfig(gamma=2), tracer=tracer).execute(plan, graph)
        spans = [record for record in tracer.records if record.name == "op:weighting"]
        assert [span.attrs["phase_memo"] for span in spans] == [
            "run",
            "run",
            "memo_hit",
            "memo_hit",
        ]

    def test_aggregation_spans_show_phase_memo_hits(self, small_cora):
        """The Aggregation phase memo keys on the total MAC count, so a
        second GCN run on one graph at another allocation of the same 1,216
        MACs prices Weighting again but neither layer's Aggregation."""
        graph = copy.deepcopy(small_cora)  # a fresh, empty pricing context
        tracer = Tracer()
        plan = lower("gcn", graph)
        GNNIEExecutor(tracer=tracer).execute(plan, graph)
        reallocated = AcceleratorConfig(macs_per_group=(3, 6, 7))
        GNNIEExecutor(reallocated, tracer=tracer).execute(plan, graph)
        memo = {
            name: [record.attrs["phase_memo"] for record in tracer.records if record.name == name]
            for name in ("op:weighting", "op:aggregation")
        }
        assert memo == {
            "op:weighting": ["run", "run", "run", "run"],
            "op:aggregation": ["run", "run", "memo_hit", "memo_hit"],
        }

    @pytest.mark.parametrize("degree_aware", [True, False])
    def test_cache_metrics_count_simulations_and_memo_hits(self, small_cora, degree_aware):
        """Each cache policy records the executor's two counters and nothing
        else: one walk, and the second Aggregation op served from its memo."""
        graph = copy.deepcopy(small_cora)  # no memos: the walk must run here
        registry = MetricsRegistry()
        config = AcceleratorConfig(enable_degree_aware_caching=degree_aware)
        GNNIEExecutor(config, metrics=registry).execute(lower("gcn", graph), graph)
        counts = {row["name"]: row["value"] for row in registry.snapshot()}
        assert counts == {"executor.cache_sim.runs": 1, "executor.cache_sim.memo_hits": 1}


# ---------------------------------------------------------------------- #
# Fleet (sweep/tune) instrumentation
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def obs_matrix() -> ScenarioMatrix:
    return ScenarioMatrix.build(
        ["cora"], ["gcn", "gat"], backends=["gnnie", "awb-gcn"], scale=0.1, seed=0
    )


class TestSweepObservability:
    def test_traced_rows_are_byte_identical_to_untraced(self, obs_matrix):
        plain = run_sweep(obs_matrix, jobs=1)
        traced = run_sweep(obs_matrix, jobs=1, tracer=Tracer(), metrics=MetricsRegistry())
        assert [canonical_row(r) for r in traced.rows] == [
            canonical_row(r) for r in plain.rows
        ]

    def test_sweep_trace_has_root_and_one_cell_span_per_executed(self, obs_matrix):
        tracer = Tracer()
        summary = run_sweep(obs_matrix, jobs=1, tracer=tracer)
        roots = [r for r in tracer.records if r.category == "sweep"]
        cells = [r for r in tracer.records if r.category == "cell"]
        assert len(roots) == 1
        assert roots[0].attrs["executed"] == summary.executed
        assert len(cells) == summary.executed
        # Supported GNNIE cells carry their modeled cycles on the cell span.
        assert any("cycles" in r.attrs for r in cells)
        assert_valid_chrome_trace(chrome_trace_document(tracer.records, track="pid"))

    def test_parallel_sweep_merges_worker_segments(self, obs_matrix):
        tracer = Tracer()
        summary = run_sweep(obs_matrix.cells()[:2], jobs=2, tracer=tracer)
        cells = [r for r in tracer.records if r.category == "cell"]
        assert len(cells) == summary.executed == 2
        # Worker spans keep their producing pid (their own timeline track).
        assert all(r.pid != 0 for r in cells)
        assert_valid_chrome_trace(chrome_trace_document(tracer.records, track="pid"))

    def test_metrics_count_executed_and_cached_cells(self, obs_matrix, tmp_path):
        store_path = tmp_path / "obs.jsonl"
        first = MetricsRegistry()
        run_sweep(obs_matrix, store=ResultStore(store_path), jobs=1, metrics=first)
        values = {row["name"]: row["value"] for row in first.snapshot()}
        assert values["sweep.cells.executed"] == 4
        assert values["sweep.cells.unsupported"] == 1  # AWB-GCN cannot run GAT
        assert values["sweep.jobs"] == 1
        assert values["sweep.cell_wall_seconds"] > 0
        second = MetricsRegistry()
        run_sweep(obs_matrix, store=ResultStore(store_path), jobs=1, metrics=second)
        resumed = {row["name"]: row["value"] for row in second.snapshot()}
        assert resumed["sweep.cells.cached"] == 4
        assert "sweep.cells.executed" not in resumed

    def test_summary_carries_wall_time_accounting(self, obs_matrix):
        summary = run_sweep(obs_matrix, jobs=1)
        assert summary.wall_seconds > 0
        assert summary.cell_wall_seconds > 0
        assert summary.rows_per_second > 0
        as_dict = summary.as_dict()
        assert as_dict["wall_seconds"] == summary.wall_seconds
        assert as_dict["cell_wall_seconds"] == summary.cell_wall_seconds

    def test_batch_of_one_span_segment(self, obs_matrix):
        cell = obs_matrix.cells()[0]
        [(row, wall, spans)] = run_batch_timed([cell], trace=True)
        assert wall > 0
        roots = [s for s in spans if s["category"] == "cell"]
        assert len(roots) == 1
        assert roots[0]["attrs"]["key"] == cell.key() == row["key"]
        assert roots[0]["attrs"]["cycles"] == row["metrics"]["cycles"]
        [(untraced_row, _, no_spans)] = run_batch_timed([cell], trace=False)
        assert no_spans is None
        assert canonical_row(untraced_row) == canonical_row(row)


class TestTuneObservability:
    def test_tune_records_generation_spans_and_counters(self):
        from repro.tune import TuneSpec, run_tune

        tracer = Tracer()
        registry = MetricsRegistry()
        spec = TuneSpec(dataset="cora", scale=0.1, generations=2, population=2)
        result = run_tune(spec, tracer=tracer, metrics=registry)
        generations = [r for r in tracer.records if r.category == "tune"]
        assert [r.name for r in generations] == ["generation0", "generation1"]
        assert all("pareto_size" in r.attrs for r in generations)
        values = {row["name"]: row["value"] for row in registry.snapshot()}
        assert values["tune.generations"] == len(result.generations) == 2
        assert values["tune.proposals"] >= spec.population
        assert values["sweep.cells.executed"] == result.executed_cells
        assert "tune.pareto_size" in values
        assert_valid_chrome_trace(chrome_trace_document(tracer.records, track="pid"))
