"""Integration tests for the top-level GNNIE inference simulator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import build_dataset
from repro.hw import SFU_COLUMNS, AcceleratorConfig, design_preset
from repro.models import MODEL_FAMILIES
from repro.obs import MetricsRegistry
from repro.plan import lower
from repro.sim import GNNIESimulator, result_to_dict


@pytest.fixture(scope="module")
def simulator():
    return GNNIESimulator()


class TestEngineBasics:
    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_every_family_runs(self, family, simulator, tiny_graph):
        result = simulator.run(tiny_graph, family)
        assert result.total_cycles > 0
        assert result.latency_seconds > 0
        assert result.total_mac_operations > 0
        assert result.energy_joules > 0
        assert result.model == family.upper()

    def test_summary_keys(self, simulator, tiny_graph):
        summary = simulator.run(tiny_graph, "gcn").summary()
        assert {"cycles", "latency_s", "macs", "dram_bytes", "energy_j", "effective_tops"} <= set(
            summary
        )

    def test_two_layers_for_message_passing(self, simulator, tiny_graph):
        result = simulator.run(tiny_graph, "gcn")
        assert len(result.layers) == 2
        assert result.layers[0].out_features == 128
        assert result.layers[1].out_features == tiny_graph.num_label_classes

    def test_gat_has_attention_phase(self, simulator, tiny_graph):
        result = simulator.run(tiny_graph, "gat")
        assert all(layer.attention is not None for layer in result.layers)
        gcn = simulator.run(tiny_graph, "gcn")
        assert all(layer.attention is None for layer in gcn.layers)

    def test_gat_slower_than_gcn(self, simulator, tiny_graph):
        gcn = simulator.run(tiny_graph, "gcn")
        gat = simulator.run(tiny_graph, "gat")
        assert gat.total_cycles > gcn.total_cycles

    def test_diffpool_has_three_stages(self, simulator, tiny_graph):
        result = simulator.run(tiny_graph, "diffpool")
        assert len(result.layers) == 3

    def test_unknown_family_rejected(self, simulator, tiny_graph):
        with pytest.raises(KeyError):
            simulator.run(tiny_graph, "transformer")

    def test_out_features_override(self, simulator, tiny_graph):
        result = simulator.run(tiny_graph, "gcn", out_features=11)
        assert result.layers[-1].out_features == 11

    def test_effective_tops_below_peak(self, simulator, tiny_graph):
        config = AcceleratorConfig()
        result = simulator.run(tiny_graph, "gcn")
        assert 0 < result.effective_tops <= config.peak_ops_per_second / 1e12

    def test_inferences_per_kilojoule_positive(self, simulator, tiny_graph):
        result = simulator.run(tiny_graph, "gcn")
        assert result.inferences_per_kilojoule > 0

    def test_chip_area_helper(self, simulator):
        assert simulator.chip_area_mm2() == pytest.approx(15.6, rel=0.15)


class TestEngineEnergy:
    def test_energy_breakdown_components_positive(self, simulator, tiny_graph):
        energy = simulator.run(tiny_graph, "gcn").energy
        assert energy.mac_pj > 0
        assert energy.dram_pj > 0
        assert energy.on_chip_buffer_pj > 0
        assert energy.static_pj > 0

    def test_gat_uses_sfu_energy(self, simulator, tiny_graph):
        gat = simulator.run(tiny_graph, "gat").energy
        assert gat.sfu_pj > 0

    def test_energy_scales_with_graph(self, simulator, tiny_graph, medium_graph):
        small = simulator.run(tiny_graph, "gcn").energy_joules
        large = simulator.run(medium_graph, "gcn").energy_joules
        assert large > small


class TestEngineCharges:
    def test_degree_binning_charged_once_and_on_every_aggregation(self, simulator, tiny_graph):
        result = simulator.run(tiny_graph, "gcn")
        binning = -(-tiny_graph.num_vertices // 8)
        assert result.global_preprocessing_cycles == binning
        assert [layer.aggregation.preprocessing_cycles for layer in result.layers] == [
            binning
        ] * len(result.layers)

    def test_no_binning_without_degree_aware_caching(self, simulator, tiny_graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        result = simulator.run(tiny_graph, "gcn", config=config)
        assert result.global_preprocessing_cycles == 0
        assert all(layer.aggregation.preprocessing_cycles == 0 for layer in result.layers)

    def test_diffpool_coarsening_uses_the_whole_array_and_every_sfu_lane(
        self, simulator, tiny_graph
    ):
        config = AcceleratorConfig()
        (coarsening,) = lower("diffpool", tiny_graph).layers[2].ops
        phase = simulator.run(tiny_graph, "diffpool").layers[2].weighting
        macs = (
            tiny_graph.num_edges * coarsening.macs_per_edge
            + tiny_graph.num_vertices * coarsening.macs_per_vertex
        )
        softmax_ops = tiny_graph.num_vertices * coarsening.softmax_ops_per_vertex
        assert phase.mac_operations == macs
        assert phase.compute_cycles == -(-macs // config.total_macs)
        assert phase.sfu_operations == softmax_ops
        assert phase.sfu_cycles == -(-softmax_ops // (SFU_COLUMNS * config.num_rows))


class TestEngineOptimizationFlags:
    def test_full_config_beats_unoptimized_baseline(self, medium_graph):
        full = GNNIESimulator(AcceleratorConfig()).run(medium_graph, "gcn")
        baseline_cfg = replace(
            design_preset("A"),
            enable_degree_aware_caching=False,
            enable_aggregation_load_balancing=False,
            enable_load_redistribution=False,
            enable_flexible_mac=False,
        )
        baseline = GNNIESimulator(baseline_cfg).run(medium_graph, "gcn")
        assert full.total_cycles < baseline.total_cycles

    def test_degree_caching_reduces_aggregation_time(self, medium_graph):
        with_cp = GNNIESimulator(AcceleratorConfig()).run(medium_graph, "gcn")
        without_cp = GNNIESimulator(
            replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        ).run(medium_graph, "gcn")
        assert with_cp.aggregation_cycles < without_cp.aggregation_cycles

    def test_load_balancing_reduces_aggregation_time(self, medium_graph):
        balanced = GNNIESimulator(AcceleratorConfig()).run(medium_graph, "gcn")
        unbalanced = GNNIESimulator(
            replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)
        ).run(medium_graph, "gcn")
        assert balanced.aggregation_cycles <= unbalanced.aggregation_cycles

    def test_more_macs_reduce_weighting_time(self, medium_graph):
        design_a = GNNIESimulator(design_preset("A")).run(medium_graph, "gcn")
        design_d = GNNIESimulator(design_preset("D")).run(medium_graph, "gcn")
        assert design_d.weighting_cycles < design_a.weighting_cycles

    def test_config_override_per_run(self, medium_graph):
        simulator = GNNIESimulator()
        default = simulator.run(medium_graph, "gcn")
        overridden = simulator.run(medium_graph, "gcn", config=design_preset("A"))
        assert overridden.config_name.startswith("Design A")
        assert default.config_name != overridden.config_name

    def test_input_buffer_sized_by_dataset_name(self, simulator, tiny_graph, small_cora):
        cora_result = simulator.run(small_cora, "gcn")
        assert cora_result.config_name == AcceleratorConfig().name

    def test_results_independent_of_run_history(self):
        """A simulator's results never depend on what it ran before.

        One simulator runs every family forward, then in reverse, on one
        graph; each result must equal a fresh simulator's on a freshly built
        graph.  The cache-simulation memo lives on the graph, keyed by the
        priming width each plan sizes it with, so GCN and GAT (same width)
        share one simulation while GINConv (aggregation first, at the input
        width) gets its own.
        """
        golden_citeseer = dict(name="citeseer", scale=0.25, seed=1)
        fresh = {
            family: result_to_dict(
                GNNIESimulator().run(build_dataset(**golden_citeseer), family)
            )
            for family in MODEL_FAMILIES
        }
        graph = build_dataset(**golden_citeseer)
        metrics = MetricsRegistry()
        simulator = GNNIESimulator(metrics=metrics)
        runs = metrics.counter("executor.cache_sim.runs")
        new_runs = []
        for family in list(MODEL_FAMILIES) + list(reversed(MODEL_FAMILIES)):
            before = runs.value
            assert result_to_dict(simulator.run(graph, family)) == fresh[family], family
            new_runs.append((family, runs.value - before))
        forward = dict(new_runs[: len(MODEL_FAMILIES)])
        assert forward["gcn"] == 1
        assert forward["gat"] == 0  # served by GCN's simulation
        assert forward["ginconv"] == 1
        assert all(count == 0 for _, count in new_runs[len(MODEL_FAMILIES):])
