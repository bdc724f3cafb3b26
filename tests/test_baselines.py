"""Tests for the workload estimator and the baseline platform cost models."""

from __future__ import annotations

import copy
import dataclasses
import pathlib

import numpy as np
import pytest

from repro.baselines import (
    AWBGCNModel,
    EnGNModel,
    HyGCNModel,
    PyGCPUModel,
    PyGGPUModel,
    workload_from_plan,
)
from repro.check import PlanVerificationError
from repro.hw import FIT
from repro.models import MODEL_FAMILIES, ModelConfig
from repro.plan import lower, lower_model
from repro.plan.ir import AdjacencyRef, AggregationOp
from repro.sim import GNNIEExecutor
from repro.sim.batch import pricing_context

PAPERS = (pathlib.Path(__file__).resolve().parents[1] / "PAPERS.md").read_text()


def _order_ops(layer):
    """``(weighting_first, aggregation_first)`` operation counts of a layer."""
    return (
        layer.sparse_weighting_macs + layer.aggregation_ops_weighting_first,
        layer.dense_weighting_macs + layer.aggregation_ops_aggregation_first,
    )


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

    def test_exact_layer_counts(self, tiny_graph):
        """GCN weights nnz·F_out and aggregates (E+V)·F_out; GINConv
        aggregates raw features at F_in; GraphSAGE aggregates only the
        sampled edges, Σ min(deg, 25)."""
        vertices, edges = tiny_graph.num_vertices, tiny_graph.num_edges
        gcn = workload_from_plan(lower("gcn", tiny_graph), tiny_graph).layers[0]
        nonzeros = int(np.count_nonzero(tiny_graph.features))
        assert gcn.sparse_weighting_macs == nonzeros * gcn.out_features
        assert gcn.aggregation_ops_weighting_first == (edges + vertices) * gcn.out_features
        gin = workload_from_plan(lower("ginconv", tiny_graph), tiny_graph).layers[0]
        assert gin.aggregation_ops_weighting_first == (edges + vertices) * gin.in_features
        sage = workload_from_plan(lower("graphsage", tiny_graph), tiny_graph).layers[0]
        sampled = int(np.minimum(tiny_graph.degrees(), 25).sum())
        assert sampled < edges
        assert sage.aggregation_ops_weighting_first == (sampled + vertices) * sage.out_features

    def test_gat_attention_ops_per_layer(self, tiny_graph):
        """Two per-vertex dot products of length F_out, plus five scalar
        operations per directed edge (add, LeakyReLU, exp, multiply and the
        softmax division): linear in V + E."""
        vertices, edges = tiny_graph.num_vertices, tiny_graph.num_edges
        workload = workload_from_plan(lower("gat", tiny_graph), tiny_graph)
        for layer in workload.layers:
            assert layer.attention_ops == 2 * vertices * layer.out_features + 5 * edges

    def test_ginconv_weighting_includes_the_mlp(self, tiny_graph):
        vertices = tiny_graph.num_vertices
        plan = lower("ginconv", tiny_graph)
        hidden = plan.layers[0].ops[0].mlp_hidden
        layer = workload_from_plan(plan, tiny_graph).layers[0]
        nonzeros = int(np.count_nonzero(tiny_graph.features))
        assert layer.dense_weighting_macs == vertices * (
            layer.in_features * hidden + hidden * layer.out_features
        )
        assert layer.sparse_weighting_macs == (
            nonzeros * hidden + vertices * hidden * layer.out_features
        )

    def test_graphsage_aggregates_less_than_full_neighborhoods(self, tiny_graph):
        sage = workload_from_plan(lower("graphsage", tiny_graph), tiny_graph)
        gcn = workload_from_plan(lower("gcn", tiny_graph), tiny_graph)
        for sampled, full in zip(sage.layers, gcn.layers):
            assert sampled.out_features == full.out_features
            assert sampled.aggregation_ops_weighting_first < full.aggregation_ops_weighting_first

    def test_diffpool_coarsening_counts(self, tiny_graph):
        vertices, edges = tiny_graph.num_vertices, tiny_graph.num_edges
        plan = lower("diffpool", tiny_graph)
        (coarsening,) = plan.layers[2].ops
        layer = workload_from_plan(plan, tiny_graph).layers[2]
        macs = edges * coarsening.macs_per_edge + vertices * coarsening.macs_per_vertex
        assert layer.dense_weighting_macs == layer.sparse_weighting_macs == macs
        assert layer.attention_ops == vertices * coarsening.softmax_ops_per_vertex
        assert layer.dram_bytes == coarsening.output_values
        assert layer.aggregation_ops_weighting_first == 0

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_totals_sum_the_layers(self, family, tiny_graph):
        workload = workload_from_plan(lower(family, tiny_graph), tiny_graph)
        for total, attribute in (
            ("dense_weighting_macs", "dense_weighting_macs"),
            ("sparse_weighting_macs", "sparse_weighting_macs"),
            ("aggregation_ops", "aggregation_ops_weighting_first"),
            ("aggregation_ops_aggregation_first", "aggregation_ops_aggregation_first"),
            ("attention_ops", "attention_ops"),
            ("sampling_ops", "sampling_ops"),
            ("dram_bytes", "dram_bytes"),
        ):
            assert getattr(workload, total) == sum(
                getattr(layer, attribute) for layer in workload.layers
            )
        assert workload.dense_weighting_macs > workload.layers[0].dense_weighting_macs
        assert workload.dram_bytes > workload.layers[0].dram_bytes

    def test_gcn_dram_bytes(self, tiny_graph):
        """Compressed input features (nonzeros) on the input layer, dense
        features after it, plus the outputs and the weight matrix."""
        vertices = tiny_graph.num_vertices
        first, second = workload_from_plan(lower("gcn", tiny_graph), tiny_graph).layers
        nonzeros = int(np.count_nonzero(tiny_graph.features))
        assert first.dram_bytes == (
            nonzeros + vertices * first.out_features + first.in_features * first.out_features
        )
        assert second.dram_bytes == (
            vertices * second.in_features
            + vertices * second.out_features
            + second.in_features * second.out_features
        )

    def test_aggregation_first_aggregates_at_the_input_width(self, tiny_graph):
        vertices, edges = tiny_graph.num_vertices, tiny_graph.num_edges
        for layer in workload_from_plan(lower("gcn", tiny_graph), tiny_graph).layers:
            assert layer.aggregation_ops_aggregation_first == (
                (edges + vertices) * layer.in_features
            )

    def test_memoized_per_plan_on_the_graph(self, tiny_graph):
        graph = copy.deepcopy(tiny_graph)
        first = workload_from_plan(lower("gcn", graph), graph)
        # An equal plan lowered again is served the same frozen estimate.
        assert workload_from_plan(lower("gcn", graph), graph) is first
        # A copy of the graph does not carry the memo.
        clone = copy.deepcopy(graph)
        assert pricing_context(clone).workloads == {}
        cold = workload_from_plan(lower("gcn", clone), clone)
        assert cold is not first and cold == first

    def test_refuses_a_plan_the_verifier_rejects(self, tiny_graph):
        """A sampled adjacency without a sample size violates P004, so the
        derivation raises instead of pricing it as some default fan-out."""
        plan = lower("graphsage", tiny_graph)
        unsized = dataclasses.replace(
            plan,
            layers=tuple(
                dataclasses.replace(
                    layer,
                    ops=tuple(
                        dataclasses.replace(op, adjacency=AdjacencyRef("sampled", None))
                        if isinstance(op, AggregationOp)
                        else op
                        for op in layer.ops
                    ),
                )
                for layer in plan.layers
            ),
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            workload_from_plan(unsized, tiny_graph)
        assert excinfo.value.rule == "P004"
        assert unsized not in pricing_context(tiny_graph).workloads


class TestPlatformTables:
    """Each platform reads one frozen table, and each entry names its source."""

    @pytest.mark.parametrize(
        "model", [PyGCPUModel, PyGGPUModel, HyGCNModel, AWBGCNModel, EnGNModel]
    )
    def test_every_entry_is_cited_or_fit(self, model):
        entries = dataclasses.fields(model.table)
        assert "average_power_watts" in {entry.name for entry in entries}
        for entry in entries:
            source = entry.metadata["source"]
            if source != FIT:
                # "<platform named in PAPERS.md>: <the published parameter>"
                platform, _, parameter = source.partition(": ")
                assert parameter and platform in PAPERS, f"{entry.name}: {source!r}"
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.table.average_power_watts = 0.0
        with pytest.raises(TypeError):
            model(**{entries[0].name: 1.0})


class TestDataflowOrders:
    """Weighting-first Ã(HW) against aggregation-first (ÃH)W (Section III)."""

    @pytest.fixture(scope="class")
    def cora_input_layer(self, small_cora):
        return workload_from_plan(lower("gcn", small_cora), small_cora).layers[0]

    def test_weighting_first_wins_on_input_layer(self, cora_input_layer):
        """With F_in = 1433 >> F_out = 128, Ã(HW) is far cheaper than (ÃH)W —
        the Section III claim of ~an order of magnitude."""
        weighting_first, aggregation_first = _order_ops(cora_input_layer)
        assert aggregation_first > 3.0 * weighting_first

    def test_sparse_weighting_cheaper_than_dense(self, cora_input_layer):
        layer = cora_input_layer
        assert layer.sparse_weighting_macs < layer.dense_weighting_macs / 10

    def test_aggregation_width_drives_difference(self, cora_input_layer):
        layer = cora_input_layer
        ratio = layer.aggregation_ops_aggregation_first / layer.aggregation_ops_weighting_first
        assert ratio == pytest.approx(layer.in_features / layer.out_features)

    def test_expanding_layer_prefers_aggregation_first(self, tiny_graph):
        """When the output is much wider than the input (expanding layer),
        aggregating first is the cheaper order — the counts must be able to
        show that case too (EnGN's dimension-aware reordering)."""
        plan = lower_model(ModelConfig(family="gcn", num_layers=1), 8, 512)
        [layer] = workload_from_plan(plan, tiny_graph).layers
        weighting_first, aggregation_first = _order_ops(layer)
        assert aggregation_first < weighting_first


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
        return GNNIEExecutor().execute(lower("gcn", small_cora), small_cora)

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
