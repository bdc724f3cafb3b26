"""Integration tests for whole GNNIE inferences: lower a family, execute the plan."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import build_dataset
from repro.hw import GNNIE_TABLE, AcceleratorConfig, design_preset
from repro.hw.dram import random_transfer_cycles
from repro.models import MODEL_FAMILIES
from repro.obs import MetricsRegistry
from repro.plan import lower
from repro.plan.ir import AggregationOp
from repro.sim import GNNIEExecutor, result_to_dict


@pytest.fixture(scope="module")
def executor():
    return GNNIEExecutor()


class TestEngineBasics:
    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_every_family_runs(self, family, executor, tiny_graph):
        result = executor.execute(lower(family, tiny_graph), tiny_graph)
        assert result.total_cycles > 0
        assert result.latency_seconds > 0
        assert result.total_mac_operations > 0
        assert result.energy_joules > 0
        assert result.model == family.upper()

    def test_summary_keys(self, executor, tiny_graph):
        summary = executor.execute(lower("gcn", tiny_graph), tiny_graph).summary()
        assert {"cycles", "latency_s", "macs", "dram_bytes", "energy_j", "effective_tops"} <= set(
            summary
        )

    def test_two_layers_for_message_passing(self, executor, tiny_graph):
        result = executor.execute(lower("gcn", tiny_graph), tiny_graph)
        assert len(result.layers) == 2
        assert result.layers[0].out_features == 128
        assert result.layers[1].out_features == tiny_graph.num_label_classes

    def test_gat_has_attention_phase(self, executor, tiny_graph):
        result = executor.execute(lower("gat", tiny_graph), tiny_graph)
        assert all(layer.attention is not None for layer in result.layers)
        gcn = executor.execute(lower("gcn", tiny_graph), tiny_graph)
        assert all(layer.attention is None for layer in gcn.layers)

    def test_gat_slower_than_gcn(self, executor, tiny_graph):
        gcn = executor.execute(lower("gcn", tiny_graph), tiny_graph)
        gat = executor.execute(lower("gat", tiny_graph), tiny_graph)
        assert gat.total_cycles > gcn.total_cycles

    def test_diffpool_has_three_stages(self, executor, tiny_graph):
        result = executor.execute(lower("diffpool", tiny_graph), tiny_graph)
        assert len(result.layers) == 3

    def test_unknown_family_rejected(self, executor, tiny_graph):
        with pytest.raises(KeyError):
            executor.execute(lower("transformer", tiny_graph), tiny_graph)

    def test_out_features_override(self, executor, tiny_graph):
        result = executor.execute(lower("gcn", tiny_graph, out_features=11), tiny_graph)
        assert result.layers[-1].out_features == 11

    def test_effective_tops_below_peak(self, executor, tiny_graph):
        config = AcceleratorConfig()
        result = executor.execute(lower("gcn", tiny_graph), tiny_graph)
        assert 0 < result.effective_tops <= config.peak_ops_per_second / 1e12

    def test_inferences_per_kilojoule_positive(self, executor, tiny_graph):
        result = executor.execute(lower("gcn", tiny_graph), tiny_graph)
        assert result.inferences_per_kilojoule > 0

    def test_chip_area_helper(self, executor):
        assert executor.chip_area_mm2() == pytest.approx(15.6, rel=0.15)


class TestEngineEnergy:
    def test_energy_breakdown_components_positive(self, executor, tiny_graph):
        energy = executor.execute(lower("gcn", tiny_graph), tiny_graph).energy
        assert energy.mac_pj > 0
        assert energy.dram_pj > 0
        assert energy.on_chip_buffer_pj > 0
        assert energy.static_pj > 0

    def test_gat_uses_sfu_energy(self, executor, tiny_graph):
        gat = executor.execute(lower("gat", tiny_graph), tiny_graph).energy
        assert gat.sfu_pj > 0

    def test_energy_scales_with_graph(self, executor, tiny_graph, medium_graph):
        small = executor.execute(lower("gcn", tiny_graph), tiny_graph).energy_joules
        large = executor.execute(lower("gcn", medium_graph), medium_graph).energy_joules
        assert large > small


class TestEngineCharges:
    def test_degree_binning_charged_once_and_on_every_aggregation(self, executor, tiny_graph):
        result = executor.execute(lower("gcn", tiny_graph), tiny_graph)
        binning = -(-tiny_graph.num_vertices // 8)
        assert result.global_preprocessing_cycles == binning
        assert [layer.aggregation.preprocessing_cycles for layer in result.layers] == [
            binning
        ] * len(result.layers)

    def test_no_binning_without_degree_aware_caching(self, executor, tiny_graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        result = executor.execute(lower("gcn", tiny_graph), tiny_graph, config)
        assert result.global_preprocessing_cycles == 0
        assert all(layer.aggregation.preprocessing_cycles == 0 for layer in result.layers)

    def test_diffpool_coarsening_uses_the_whole_array_and_every_sfu_lane(
        self, executor, tiny_graph
    ):
        config = AcceleratorConfig()
        (coarsening,) = lower("diffpool", tiny_graph).layers[2].ops
        phase = executor.execute(lower("diffpool", tiny_graph), tiny_graph).layers[2].weighting
        macs = (
            tiny_graph.num_edges * coarsening.macs_per_edge
            + tiny_graph.num_vertices * coarsening.macs_per_vertex
        )
        softmax_ops = tiny_graph.num_vertices * coarsening.softmax_ops_per_vertex
        assert phase.mac_operations == macs
        assert phase.compute_cycles == -(-macs // config.total_macs)
        assert phase.sfu_operations == softmax_ops
        assert phase.sfu_cycles == -(-softmax_ops // (GNNIE_TABLE.sfu_columns * config.num_rows))


class TestEngineMemoryOverlap:
    """The layer pass is the one place that decides exposed memory stall."""

    @pytest.mark.parametrize("caching", ["degree_aware", "id_order"])
    @pytest.mark.parametrize("family", ["gcn", "gat"])
    def test_aggregation_pays_random_cycles_plus_the_layers_unhidden_streaming(
        self, family, caching, small_cora
    ):
        degree_aware = caching == "degree_aware"
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=degree_aware)
        plan = lower(family, small_cora)
        result = GNNIEExecutor(config).execute(plan, small_cora)
        for stage, layer in zip(plan.layers, result.layers):
            (width,) = [op.width for op in stage.ops if isinstance(op, AggregationOp)]
            random_cycles = random_transfer_cycles(
                GNNIE_TABLE,
                layer.aggregation.dram_random_accesses,
                bytes_per_access=width * GNNIE_TABLE.bytes_per_value,
            )
            phases = layer.phases()
            busy = sum(p.compute_cycles + p.sfu_cycles + p.preprocessing_cycles for p in phases)
            streaming = sum(p.streaming_memory_cycles for p in phases)
            assert (random_cycles > 0) != degree_aware
            assert layer.weighting.memory_stall_cycles == 0
            assert layer.attention is None or layer.attention.memory_stall_cycles == 0
            assert layer.aggregation.memory_stall_cycles == random_cycles + max(
                0, streaming - busy
            )


class TestEngineOptimizationFlags:
    def test_full_config_beats_unoptimized_baseline(self, medium_graph):
        plan = lower("gcn", medium_graph)
        full = GNNIEExecutor(AcceleratorConfig()).execute(plan, medium_graph)
        baseline_cfg = replace(
            design_preset("A"),
            enable_degree_aware_caching=False,
            enable_aggregation_load_balancing=False,
            enable_load_redistribution=False,
            enable_flexible_mac=False,
        )
        baseline = GNNIEExecutor(baseline_cfg).execute(plan, medium_graph)
        assert full.total_cycles < baseline.total_cycles

    def test_degree_caching_reduces_aggregation_time(self, medium_graph):
        plan = lower("gcn", medium_graph)
        with_cp = GNNIEExecutor(AcceleratorConfig()).execute(plan, medium_graph)
        without_cp = GNNIEExecutor(
            replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        ).execute(plan, medium_graph)
        assert with_cp.aggregation_cycles < without_cp.aggregation_cycles

    def test_load_balancing_reduces_aggregation_time(self, medium_graph):
        plan = lower("gcn", medium_graph)
        balanced = GNNIEExecutor(AcceleratorConfig()).execute(plan, medium_graph)
        unbalanced = GNNIEExecutor(
            replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)
        ).execute(plan, medium_graph)
        assert balanced.aggregation_cycles <= unbalanced.aggregation_cycles

    def test_more_macs_reduce_weighting_time(self, medium_graph):
        plan = lower("gcn", medium_graph)
        design_a = GNNIEExecutor(design_preset("A")).execute(plan, medium_graph)
        design_d = GNNIEExecutor(design_preset("D")).execute(plan, medium_graph)
        assert design_d.weighting_cycles < design_a.weighting_cycles

    def test_config_override_per_run(self, medium_graph):
        executor = GNNIEExecutor()
        plan = lower("gcn", medium_graph)
        default = executor.execute(plan, medium_graph)
        overridden = executor.execute(plan, medium_graph, design_preset("A"))
        assert overridden.config_name.startswith("Design A")
        assert default.config_name != overridden.config_name

    def test_input_buffer_sized_by_dataset_name(self, executor, tiny_graph, small_cora):
        cora_result = executor.execute(lower("gcn", small_cora), small_cora)
        assert cora_result.config_name == AcceleratorConfig().name

    def test_results_independent_of_run_history(self):
        """An executor's results never depend on what it ran before.

        One executor runs every family forward, then in reverse, on one
        graph; each result must equal a fresh executor's on a freshly built
        graph.  The cache-simulation memo lives on the graph, keyed by the
        priming width each plan sizes it with, so GCN and GAT (same width)
        share one simulation while GINConv (aggregation first, at the input
        width) gets its own.
        """
        golden_citeseer = dict(name="citeseer", scale=0.25, seed=1)

        def fresh_run(family):
            graph = build_dataset(**golden_citeseer)
            return result_to_dict(GNNIEExecutor().execute(lower(family, graph), graph))

        fresh = {family: fresh_run(family) for family in MODEL_FAMILIES}
        graph = build_dataset(**golden_citeseer)
        metrics = MetricsRegistry()
        executor = GNNIEExecutor(metrics=metrics)
        runs = metrics.counter("executor.cache_sim.runs")
        new_runs = []
        for family in list(MODEL_FAMILIES) + list(reversed(MODEL_FAMILIES)):
            before = runs.value
            result = executor.execute(lower(family, graph), graph)
            assert result_to_dict(result) == fresh[family], family
            new_runs.append((family, runs.value - before))
        forward = dict(new_runs[: len(MODEL_FAMILIES)])
        assert forward["gcn"] == 1
        assert forward["gat"] == 0  # served by GCN's simulation
        assert forward["ginconv"] == 1
        assert all(count == 0 for _, count in new_runs[len(MODEL_FAMILIES):])
