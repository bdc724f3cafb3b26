"""Tests for the plan IR, the lowering table and the backend table."""

from __future__ import annotations

import json

import pytest

from repro.check import family_contract, plan_violations
from repro.models import MODEL_FAMILIES, TABLE3_CONFIGS, ModelConfig
from repro.models.lowering import LOWERINGS
from repro.plan import (
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    HIDDEN_DENSITY,
    InferencePlan,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
    executor,
    executor_names,
    lower,
    lower_model,
)
from repro.sim import GNNIEExecutor
from repro.sim.results import InferenceResult


def _sgc_plan(hops: int) -> InferencePlan:
    """A hand-built SGC plan: one weighting, then ``hops`` sum-aggregations."""
    ops = (
        WeightingOp(32, 4, is_input_layer=True),
        *(AggregationOp(32 if hop == 0 else 4, 4) for hop in range(hops)),
    )
    return InferencePlan(
        family="sgc", in_features=32, out_features=4, layers=(PlanLayer(0, 32, 4, ops),)
    )


class TestLoweringTable:
    def test_table_lists_every_family_once_with_a_contract(self):
        assert tuple(LOWERINGS) == MODEL_FAMILIES == tuple(TABLE3_CONFIGS)
        for family in MODEL_FAMILIES:
            assert family_contract(family) is not None, family

    def test_unknown_family_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            lower("transformer", tiny_graph)
        with pytest.raises(KeyError, match="'transformer'.*'gcn'.*'diffpool'"):
            lower_model(ModelConfig(family="transformer"), 32, 4)

    def test_hand_built_plan_needs_no_table_entry(self, tiny_graph):
        plan = _sgc_plan(hops=2)
        # No contract, so only the universal rules apply, and they pass.
        assert family_contract("sgc") is None
        assert plan_violations(plan) == ()
        result = GNNIEExecutor().execute(plan, tiny_graph)
        assert isinstance(result, InferenceResult)
        assert result.total_cycles > 0
        # Both propagation hops are costed, not just the last op of a kind.
        one_hop = GNNIEExecutor().execute(_sgc_plan(hops=1), tiny_graph)
        two_hop_macs = result.layers[0].aggregation.mac_operations
        assert two_hop_macs == 2 * one_hop.layers[0].aggregation.mac_operations

    def test_workload_estimation_rejects_unknown_ops(self, tiny_graph):
        from dataclasses import dataclass

        from repro.baselines import workload_from_plan

        @dataclass(frozen=True)
        class MysteryOp:
            flops: int = 7

        plan = InferencePlan(
            family="mystery",
            in_features=8,
            out_features=2,
            layers=(PlanLayer(0, 8, 2, (MysteryOp(),)),),
        )
        # The plan verifier gates the workload derivation and every executor,
        # and rejects the unknown op (rule P001) before per-op dispatch.
        from repro.check import PlanVerificationError
        from repro.scaleout.engine import _chip_plan

        with pytest.raises(PlanVerificationError, match="P001"):
            workload_from_plan(plan, tiny_graph)
        with pytest.raises(PlanVerificationError, match="P001"):
            GNNIEExecutor().execute(plan, tiny_graph)
        # A verified op the derivation has no count for raises TypeError.
        chip_plan = _chip_plan(lower("gcn", tiny_graph), halo_vertices=4, chips=2)
        with pytest.raises(TypeError, match="HaloExchangeOp"):
            workload_from_plan(chip_plan, tiny_graph)


class TestPlanStructure:
    def test_gcn_plan_ops(self, tiny_graph):
        plan = lower("gcn", tiny_graph)
        assert plan.num_layers == 2
        for layer in plan.layers:
            assert isinstance(layer.find(WeightingOp), WeightingOp)
            assert isinstance(layer.find(AggregationOp), AggregationOp)
            assert layer.find(AttentionOp) is None
        assert plan.layers[0].find(WeightingOp).density is None
        assert plan.layers[1].find(WeightingOp).density == HIDDEN_DENSITY
        assert any(isinstance(op, PreprocessOp) for op in plan.global_ops)

    def test_gat_plan_has_attention_and_weighted_aggregation(self, tiny_graph):
        plan = lower("gat", tiny_graph)
        for layer in plan.layers:
            assert isinstance(layer.find(AttentionOp), AttentionOp)
            assert layer.find(AggregationOp).weighted

    def test_graphsage_plan_samples(self, tiny_graph):
        plan = lower("graphsage", tiny_graph)
        for layer in plan.layers:
            sample = layer.find(SampleOp)
            assert sample is not None and sample.sample_size == 25
            assert layer.find(AggregationOp).adjacency == AdjacencyRef("sampled", 25)

    def test_ginconv_aggregates_pre_weighting(self, tiny_graph):
        plan = lower("ginconv", tiny_graph)
        layer = plan.layers[0]
        aggregation = layer.find(AggregationOp)
        assert aggregation.pre_weighting
        assert aggregation.width == layer.in_features
        assert layer.find(WeightingOp).mlp_hidden == 128

    def test_diffpool_plan_coarsens(self, tiny_graph):
        plan = lower("diffpool", tiny_graph)
        assert plan.num_layers == 3
        coarsening = plan.layers[2].find(DenseMatmulOp)
        assert coarsening is not None
        clusters = max(2, 128 // 4)
        assert coarsening.macs_per_edge == clusters
        # Both constituent GCNs read the raw input features.
        assert all(layer.find(WeightingOp).is_input_layer for layer in plan.layers[:2])

    def test_plan_serialization_round_trips(self, tiny_graph):
        plan = lower("gat", tiny_graph)
        document = json.loads(plan.to_json())
        assert document["family"] == "gat"
        assert len(document["layers"]) == 2
        assert document["layers"][0]["ops"][1]["op"] == "AttentionOp"
        rows = plan.op_rows()
        assert any(row["op"] == "PreprocessOp" for row in rows)
        assert any("attention" in str(row["detail"]) for row in rows)


class TestLoweringEdgeCases:
    """Non-Table-III configurations must lower and execute unchanged."""

    def test_deep_gcn_num_layers_gt_2(self, tiny_graph):
        cfg = ModelConfig(family="gcn", num_layers=4, hidden_features=64)
        plan = lower_model(cfg, tiny_graph.feature_length, 6)
        assert plan.num_layers == 4
        dims = [(l.in_features, l.out_features) for l in plan.layers]
        assert dims == [(tiny_graph.feature_length, 64), (64, 64), (64, 64), (64, 6)]
        # Only the first layer reads the actual feature matrix.
        input_flags = [l.find(WeightingOp).is_input_layer for l in plan.layers]
        assert input_flags == [True, False, False, False]
        plan = lower("gcn", tiny_graph, config=cfg, out_features=6)
        result = GNNIEExecutor().execute(plan, tiny_graph)
        assert len(result.layers) == 4
        assert result.total_cycles > 0

    def test_nonstandard_hidden_features(self, tiny_graph):
        cfg = ModelConfig(family="gat", hidden_features=48)
        plan = lower_model(cfg, tiny_graph.feature_length, 5)
        assert plan.layers[0].out_features == 48
        assert plan.layers[0].find(AttentionOp).out_features == 48
        plan = lower("gat", tiny_graph, config=cfg, out_features=5)
        result = GNNIEExecutor().execute(plan, tiny_graph)
        assert result.layers[0].out_features == 48
        assert result.total_cycles > 0

    def test_graphsage_without_sample_size(self, tiny_graph):
        cfg = ModelConfig(family="graphsage", aggregator="max", sample_size=None)
        plan = lower_model(cfg, tiny_graph.feature_length, 4)
        # The Table III default of 25 neighbors applies.
        assert all(l.find(SampleOp).sample_size == 25 for l in plan.layers)
        result = GNNIEExecutor().execute(lower("graphsage", tiny_graph, config=cfg), tiny_graph)
        assert result.total_cycles > 0

    def test_deep_ginconv_executes_on_baselines(self, tiny_graph):
        from repro.baselines import EnGNModel, workload_from_plan

        cfg = ModelConfig(family="ginconv", num_layers=3, mlp_hidden=32)
        plan = lower_model(cfg, tiny_graph.feature_length, 4)
        workload = workload_from_plan(plan, tiny_graph)
        assert len(workload.layers) == 3
        assert workload.dense_weighting_macs > 0
        result = EnGNModel().execute(plan, tiny_graph)
        assert result.latency_seconds > 0


class TestExecutorTable:
    def test_backend_names_are_the_six_sorted(self):
        assert executor_names() == ("awb-gcn", "engn", "gnnie", "hygcn", "pyg-cpu", "pyg-gpu")

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="'tpu'.*'awb-gcn'.*'pyg-gpu'"):
            executor("tpu")

    @pytest.mark.parametrize(
        ("name", "model"),
        [
            ("awb-gcn", "AWBGCNModel"),
            ("engn", "EnGNModel"),
            ("gnnie", None),
            ("hygcn", "HyGCNModel"),
            ("pyg-cpu", "PyGCPUModel"),
            ("pyg-gpu", "PyGGPUModel"),
        ],
    )
    def test_each_name_builds_its_own_backend(self, tiny_graph, name, model):
        """A swapped table entry would price every sweep row of one
        platform on another's cost model."""
        import repro.baselines
        from repro.baselines import PlatformResult
        from repro.plan import Executor

        expected = GNNIEExecutor if model is None else getattr(repro.baselines, model)
        backend = executor(name)
        assert type(backend) is expected
        assert isinstance(backend, Executor)
        assert backend.name.lower() == name
        # A fresh instance per call: callers set ``tracer`` on theirs.
        assert executor(name) is not backend
        result = backend.execute(lower("gcn", tiny_graph), tiny_graph)
        if model is None:
            assert isinstance(result, InferenceResult) and result.total_cycles > 0
        else:
            assert isinstance(result, PlatformResult) and result.platform == backend.name

    def test_names_ignore_case_and_surrounding_space(self, tiny_graph):
        assert type(executor(" GNNIE ")) is GNNIEExecutor
        assert type(executor("HyGCN")) is type(executor("hygcn"))
        assert lower(" GCN ", tiny_graph) == lower("gcn", tiny_graph)

    def test_gnnie_executor_resolves(self, tiny_graph):
        backend = executor("gnnie")
        result = backend.execute(lower("gcn", tiny_graph), tiny_graph)
        assert result.total_cycles > 0

    def test_baseline_backend_resolves(self, tiny_graph):
        backend = executor("hygcn")
        result = backend.execute(lower("gcn", tiny_graph), tiny_graph)
        assert result.platform == "HyGCN"
        assert result.latency_seconds > 0
