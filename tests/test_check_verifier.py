"""The plan verifier: every rule rejects its malformed plan, every real plan passes.

Two halves:

* **Failure modes** — hand-built malformed plans (halo op without a
  following aggregation, inter-layer width mismatch, negative MAC count,
  preprocess op in layer 1, …) each raise
  :class:`~repro.check.PlanVerificationError` naming the violated rule.
* **Soundness on real plans** — a hypothesis property that every plan
  ``lower()`` produces for all 5 families verifies clean, the full
  family x dataset registry matrix verifies clean, and multi-chip plans
  with spliced halo ops verify clean.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import (
    PlanVerificationError,
    plan_violations,
    verifier,
    verify_all_plans,
    verify_counters,
    verify_plan,
)
from repro.models.zoo import MODEL_FAMILIES, model_config
from repro.plan.ir import (
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    HaloExchangeOp,
    InferencePlan,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
)
from repro.plan.lowering import lower_model


def _gcn_layer(index: int, fan_in: int, fan_out: int, *, ops=None) -> PlanLayer:
    if ops is None:
        ops = (
            WeightingOp(in_features=fan_in, out_features=fan_out, is_input_layer=index == 0),
            AggregationOp(in_features=fan_in, out_features=fan_out),
        )
    return PlanLayer(index=index, in_features=fan_in, out_features=fan_out, ops=ops)


def _gcn_plan(*, layers=None, global_ops=(PreprocessOp(),), family: str = "gcn") -> InferencePlan:
    if layers is None:
        layers = (_gcn_layer(0, 16, 8), _gcn_layer(1, 8, 4))
    return InferencePlan(
        family=family, in_features=16, out_features=4, layers=layers, global_ops=global_ops
    )


def _rules_of(plan: InferencePlan) -> set[str]:
    return {violation.rule for violation in plan_violations(plan)}


def test_well_formed_plan_verifies_clean():
    plan = _gcn_plan()
    assert plan_violations(plan) == ()
    assert verify_plan(plan) is plan


def test_error_carries_rule_layer_and_op():
    layers = (
        _gcn_layer(0, 16, 8),
        _gcn_layer(1, 8, 4, ops=(_gcn_layer(1, 8, 4).ops[0], _gcn_layer(1, 8, 4).ops[1], PreprocessOp())),
    )
    plan = _gcn_plan(layers=layers)
    with pytest.raises(PlanVerificationError) as excinfo:
        verify_plan(plan)
    error = excinfo.value
    assert error.rule == "P003"
    assert error.layer == 1
    assert error.op == "PreprocessOp"
    assert "P003" in str(error)


def test_empty_plan_violates_layer_structure():
    plan = _gcn_plan(layers=())
    assert "P002" in _rules_of(plan)


def test_shuffled_layer_indices_violate_p002():
    plan = _gcn_plan(layers=(_gcn_layer(1, 16, 8), _gcn_layer(0, 8, 4)))
    assert "P002" in _rules_of(plan)


def test_preprocess_in_layer_1_violates_p003():
    bad = _gcn_layer(1, 8, 4)
    bad = dataclasses.replace(bad, ops=bad.ops + (PreprocessOp(),))
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 8), bad))
    assert "P003" in _rules_of(plan)


def test_sampled_adjacency_without_sampleop_violates_p004():
    ops = (
        WeightingOp(in_features=16, out_features=4, is_input_layer=True),
        AggregationOp(
            in_features=16,
            out_features=4,
            adjacency=AdjacencyRef(kind="sampled", sample_size=25),
        ),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P004" in _rules_of(plan)


def test_sampleop_after_its_aggregation_violates_p004():
    ops = (
        WeightingOp(in_features=16, out_features=4, is_input_layer=True),
        AggregationOp(
            in_features=16,
            out_features=4,
            adjacency=AdjacencyRef(kind="sampled", sample_size=25),
        ),
        SampleOp(sample_size=25),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P004" in _rules_of(plan)


def test_halo_without_following_aggregation_violates_p005():
    ops = (
        WeightingOp(in_features=16, out_features=4, is_input_layer=True),
        AggregationOp(in_features=16, out_features=4),
        HaloExchangeOp(halo_vertices=10, features=4, chips=4),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P005" in _rules_of(plan)


def test_halo_in_single_chip_plan_violates_p005():
    ops = (
        WeightingOp(in_features=16, out_features=4, is_input_layer=True),
        HaloExchangeOp(halo_vertices=10, features=4, chips=1),
        AggregationOp(in_features=16, out_features=4),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P005" in _rules_of(plan)


def test_halo_width_mismatch_violates_p005():
    ops = (
        WeightingOp(in_features=16, out_features=4, is_input_layer=True),
        HaloExchangeOp(halo_vertices=10, features=7, chips=4),
        AggregationOp(in_features=16, out_features=4),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P005" in _rules_of(plan)


def test_negative_mac_count_violates_p006():
    ops = (
        DenseMatmulOp(in_features=8, out_features=4, macs_per_edge=-5, macs_per_vertex=0),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P006" in _rules_of(plan)


def test_nonfinite_density_violates_p006():
    ops = (
        WeightingOp(in_features=16, out_features=4, density=float("nan")),
        AggregationOp(in_features=16, out_features=4),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P006" in _rules_of(plan)


def test_density_above_one_violates_p006():
    ops = (
        WeightingOp(in_features=16, out_features=4, density=1.5),
        AggregationOp(in_features=16, out_features=4),
    )
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 4, ops=ops),), family="plugin")
    assert "P006" in _rules_of(plan)


def test_interlayer_width_mismatch_violates_p101():
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 8), _gcn_layer(1, 6, 4)))
    assert "P101" in _rules_of(plan)


def test_width_flow_not_enforced_for_unregistered_families():
    """Plug-in families without a contract get the universal tier only."""
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 8), _gcn_layer(1, 6, 4)), family="plugin")
    rules = _rules_of(plan)
    assert "P101" not in rules and "P102" not in rules


def test_gat_without_attention_violates_p102():
    config = model_config("gat")
    plan = lower_model(config, 16, 4)
    stripped_layers = tuple(
        dataclasses.replace(
            layer,
            ops=tuple(
                dataclasses.replace(op, weighted=False)
                if isinstance(op, AggregationOp)
                else op
                for op in layer.ops
                if not isinstance(op, AttentionOp)
            ),
        )
        for layer in plan.layers
    )
    stripped = dataclasses.replace(plan, layers=stripped_layers)
    assert "P102" in _rules_of(stripped)


def test_gat_unweighted_aggregation_violates_p102():
    plan = lower_model(model_config("gat"), 16, 4)
    layers = tuple(
        dataclasses.replace(
            layer,
            ops=tuple(
                dataclasses.replace(op, weighted=False)
                if isinstance(op, AggregationOp)
                else op
                for op in layer.ops
            ),
        )
        for layer in plan.layers
    )
    assert "P102" in _rules_of(dataclasses.replace(plan, layers=layers))


def test_diffpool_without_dense_matmul_violates_p102():
    plan = lower_model(model_config("diffpool"), 16, 4)
    coarsening = plan.layers[2]
    gutted = dataclasses.replace(
        coarsening,
        ops=tuple(op for op in coarsening.ops if not isinstance(op, DenseMatmulOp)),
    )
    bad = dataclasses.replace(plan, layers=plan.layers[:2] + (gutted,))
    assert "P102" in _rules_of(bad)


def test_every_rule_has_a_contract_docstring():
    """The table holds exactly these IDs, and every ``_rule_*`` function of
    the module exactly once: a repeated literal key would drop one."""
    assert list(verifier._RULES) == [
        "P001", "P002", "P003", "P004", "P005", "P006", "P101", "P102"
    ]
    rules = list(verifier._RULES.values())
    defined = {value for name, value in vars(verifier).items() if name.startswith("_rule_")}
    assert len(set(rules)) == len(rules) and set(rules) == defined
    for rule in verifier._RULES.values():
        assert rule.__doc__ and rule.__doc__.strip()


# --------------------------------------------------------------------- #
# Soundness on real plans
# --------------------------------------------------------------------- #

@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(MODEL_FAMILIES),
    in_features=st.integers(min_value=1, max_value=2048),
    out_features=st.integers(min_value=1, max_value=256),
)
def test_every_lowered_plan_verifies_clean(family, in_features, out_features):
    plan = lower_model(model_config(family), in_features, out_features)
    assert plan_violations(plan) == ()


def test_full_registry_matrix_verifies_clean():
    rows = verify_all_plans()
    assert len(rows) == 25  # 5 families x 5 datasets
    assert all(row["ok"] for row in rows)


def test_chip_plans_with_spliced_halos_verify_clean():
    from repro.datasets import build_dataset
    from repro.plan.lowering import lower
    from repro.scaleout.engine import partition_workload

    graph = build_dataset("cora", scale=0.05, seed=7)
    plan = lower("gcn", graph)
    workload = partition_workload(graph, plan, 4)
    for chip_plan in workload.chip_plans:
        assert plan_violations(chip_plan) == ()


def test_verify_plan_is_memoized_by_content():
    before = verify_counters()
    plan_a = _gcn_plan()
    plan_b = _gcn_plan()  # distinct object, equal content
    assert plan_a is not plan_b
    assert verify_plan(plan_a) is plan_a
    after_first = verify_counters()
    assert verify_plan(plan_b) is plan_b
    after_second = verify_counters()
    assert after_first["runs"] >= before["runs"]
    assert after_second["runs"] == after_first["runs"]
    assert after_second["hits"] == after_first["hits"] + 1


def test_executor_rejects_malformed_plan():
    from repro.datasets import build_dataset
    from repro.sim.gnnie_executor import GNNIEExecutor

    graph = build_dataset("cora", scale=0.05, seed=7)
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 8), _gcn_layer(1, 6, 4)))
    with pytest.raises(PlanVerificationError):
        GNNIEExecutor().execute(plan, graph)


def test_platform_rejects_malformed_plan():
    from repro.datasets import build_dataset
    from repro.plan.executor import executor

    graph = build_dataset("cora", scale=0.05, seed=7)
    plan = _gcn_plan(layers=(_gcn_layer(0, 16, 8), _gcn_layer(1, 6, 4)))
    with pytest.raises(PlanVerificationError):
        executor("hygcn").execute(plan, graph)
