"""Tests for the workload estimator and the baseline platform cost models."""

from __future__ import annotations

import pytest

from repro.baselines import (
    AWBGCNModel,
    HyGCNModel,
    PyGCPUModel,
    PyGGPUModel,
    workload_from_plan,
)
from repro.models import MODEL_FAMILIES
from repro.plan import lower
from repro.sim import GNNIESimulator


class TestWorkloadEstimator:
    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_positive_counts(self, family, tiny_graph):
        workload = workload_from_plan(lower(family, tiny_graph), tiny_graph)
        assert workload.dense_weighting_macs > 0
        assert workload.sparse_weighting_macs > 0
        assert workload.dram_bytes > 0

    def test_sparse_fewer_than_dense_macs(self, small_cora):
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        assert workload.sparse_weighting_macs < workload.dense_weighting_macs / 5

    def test_aggregation_first_costs_more_on_input_layer(self, small_cora):
        """(Ã H) W aggregates at the input width (1433 for Cora) which is far
        more work than aggregating at the hidden width (Section III)."""
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        first_layer = workload.layers[0]
        assert (
            first_layer.aggregation_ops_aggregation_first
            > 3 * first_layer.aggregation_ops_weighting_first
        )

    def test_gat_has_attention_ops(self, tiny_graph):
        assert workload_from_plan(lower("gat", tiny_graph), tiny_graph).attention_ops > 0
        assert workload_from_plan(lower("gcn", tiny_graph), tiny_graph).attention_ops == 0

    def test_graphsage_sampling_ops(self, tiny_graph):
        workload = workload_from_plan(lower("graphsage", tiny_graph), tiny_graph)
        # Sampling is performed once per layer (25 pregenerated draws per
        # vertex per layer).
        assert workload.sampling_ops == tiny_graph.num_vertices * 25 * len(workload.layers)

    def test_diffpool_has_three_components(self, tiny_graph):
        workload = workload_from_plan(lower("diffpool", tiny_graph), tiny_graph)
        assert len(workload.layers) == 3

    def test_layer_count_for_message_passing(self, tiny_graph):
        assert len(workload_from_plan(lower("gcn", tiny_graph), tiny_graph).layers) == 2


class TestPlatformModels:
    @pytest.fixture(scope="class")
    def platforms(self):
        return PyGCPUModel(), PyGGPUModel(), HyGCNModel(), AWBGCNModel()

    def test_latencies_positive(self, platforms, tiny_graph):
        workload = workload_from_plan(lower("gcn", tiny_graph), tiny_graph)
        for platform in platforms:
            result = platform.evaluate(tiny_graph, workload)
            assert result.latency_seconds > 0
            assert result.energy_joules > 0
            assert result.inferences_per_kilojoule > 0

    def test_gpu_faster_than_cpu(self, platforms, small_cora):
        cpu, gpu, _, _ = platforms
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        assert gpu.evaluate(small_cora, workload).latency_seconds < cpu.evaluate(
            small_cora, workload
        ).latency_seconds

    def test_hygcn_rejects_gat(self, platforms, tiny_graph):
        hygcn = platforms[2]
        assert not hygcn.supports("gat")
        with pytest.raises(ValueError):
            hygcn.evaluate(tiny_graph, workload_from_plan(lower("gat", tiny_graph), tiny_graph))

    def test_awbgcn_supports_only_gcn(self, platforms, tiny_graph):
        awb = platforms[3]
        assert awb.supports("gcn")
        for family in ("gat", "graphsage", "ginconv", "diffpool"):
            assert not awb.supports(family)

    def test_accelerators_faster_than_cpu(self, platforms, small_cora):
        cpu, _, hygcn, awb = platforms
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        cpu_latency = cpu.evaluate(small_cora, workload).latency_seconds
        assert hygcn.evaluate(small_cora, workload).latency_seconds < cpu_latency
        assert awb.evaluate(small_cora, workload).latency_seconds < cpu_latency

    def test_platform_names(self, platforms):
        assert [p.name for p in platforms] == ["PyG-CPU", "PyG-GPU", "HyGCN", "AWB-GCN"]


class TestGNNIEAgainstBaselines:
    """End-to-end sanity: GNNIE must beat every baseline on a real dataset."""

    @pytest.fixture(scope="class")
    def gnnie_result(self, small_cora):
        return GNNIESimulator().run(small_cora, "gcn")

    @pytest.fixture(scope="class")
    def workload(self, small_cora):
        return workload_from_plan(lower("gcn", small_cora), small_cora)

    def test_faster_than_cpu_by_orders_of_magnitude(self, gnnie_result, small_cora, workload):
        cpu = PyGCPUModel().evaluate(small_cora, workload)
        assert cpu.latency_seconds / gnnie_result.latency_seconds > 50

    def test_faster_than_gpu(self, gnnie_result, small_cora, workload):
        gpu = PyGGPUModel().evaluate(small_cora, workload)
        assert gpu.latency_seconds / gnnie_result.latency_seconds > 2

    def test_faster_than_hygcn(self, gnnie_result, small_cora, workload):
        hygcn = HyGCNModel().evaluate(small_cora, workload)
        assert hygcn.latency_seconds / gnnie_result.latency_seconds > 2

    def test_competitive_with_awbgcn_using_fewer_macs(self, gnnie_result, small_cora, workload):
        awb = AWBGCNModel().evaluate(small_cora, workload)
        speedup = awb.latency_seconds / gnnie_result.latency_seconds
        assert speedup > 0.8  # at least competitive despite 3.4x fewer MACs

    def test_more_energy_efficient_than_accelerator_baselines(
        self, gnnie_result, small_cora, workload
    ):
        hygcn = HyGCNModel().evaluate(small_cora, workload)
        awb = AWBGCNModel().evaluate(small_cora, workload)
        assert gnnie_result.inferences_per_kilojoule > hygcn.inferences_per_kilojoule
        assert gnnie_result.inferences_per_kilojoule > awb.inferences_per_kilojoule
