"""Lowering rules: Table III model configurations → inference plans.

Each GNN family is a pure function from a
:class:`~repro.models.zoo.ModelConfig` and a dataset shape to an
:class:`~repro.plan.ir.InferencePlan`.  The former engine special cases are
ordinary ops here: GINConv's pre-MLP aggregation is an
:class:`~repro.plan.ir.AggregationOp` with ``pre_weighting=True``,
GraphSAGE's neighbor sampling is a :class:`~repro.plan.ir.SampleOp` feeding
a ``sampled`` adjacency handle, and DiffPool's coarsening products (Sᵀ A S
and Sᵀ Z) are a :class:`~repro.plan.ir.DenseMatmulOp`.

:data:`LOWERINGS` holds the rules keyed by family, in
:data:`~repro.models.zoo.MODEL_FAMILIES` order; :func:`repro.plan.lower_model`
imports it on first call.
"""

from __future__ import annotations

from typing import Callable

from repro.models.zoo import ModelConfig
from repro.plan.ir import (
    FULL_ADJACENCY,
    HIDDEN_DENSITY,
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    InferencePlan,
    PhaseOp,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
)

__all__ = [
    "LOWERINGS",
    "lower_gcn",
    "lower_gat",
    "lower_graphsage",
    "lower_ginconv",
    "lower_diffpool",
    "DEFAULT_SAMPLE_SIZE",
]

#: GraphSAGE neighborhood size when the configuration leaves it unset
#: (25 neighbors, Table III).
DEFAULT_SAMPLE_SIZE = 25


def _message_passing_plan(
    cfg: ModelConfig,
    in_features: int,
    out_features: int,
    *,
    attention: bool = False,
    sample_size: int | None = None,
    pre_weighting: bool = False,
    use_mlp: bool = False,
) -> InferencePlan:
    """Shared lowering for the layer-stacked message-passing families."""
    adjacency = (
        AdjacencyRef("sampled", sample_size) if sample_size is not None else FULL_ADJACENCY
    )
    layers: list[PlanLayer] = []
    for index, (f_in, f_out) in enumerate(cfg.layer_dimensions(in_features, out_features)):
        is_input = index == 0
        ops: list[PhaseOp] = []
        if sample_size is not None:
            ops.append(SampleOp(sample_size))
        ops.append(
            WeightingOp(
                in_features=f_in,
                out_features=f_out,
                is_input_layer=is_input,
                density=None if is_input else HIDDEN_DENSITY,
                mlp_hidden=(cfg.mlp_hidden or f_out) if use_mlp else None,
            )
        )
        if attention:
            ops.append(AttentionOp(out_features=f_out, adjacency=adjacency))
        ops.append(
            AggregationOp(
                in_features=f_in,
                out_features=f_out,
                adjacency=adjacency,
                pre_weighting=pre_weighting,
                weighted=attention,
                aggregator=cfg.aggregator,
            )
        )
        layers.append(PlanLayer(index, f_in, f_out, tuple(ops)))
    return InferencePlan(
        family=cfg.family.lower(),
        in_features=in_features,
        out_features=out_features,
        layers=tuple(layers),
        global_ops=(PreprocessOp("degree_binning"),),
    )


def lower_gcn(cfg: ModelConfig, in_features: int, out_features: int) -> InferencePlan:
    """GCN: weighting then sum-aggregation over the full adjacency."""
    return _message_passing_plan(cfg, in_features, out_features)


def lower_gat(cfg: ModelConfig, in_features: int, out_features: int) -> InferencePlan:
    """GAT: adds per-edge attention and a weighted aggregation."""
    return _message_passing_plan(cfg, in_features, out_features, attention=True)


def lower_graphsage(cfg: ModelConfig, in_features: int, out_features: int) -> InferencePlan:
    """GraphSAGE: aggregation over a sampled neighborhood."""
    return _message_passing_plan(
        cfg, in_features, out_features, sample_size=cfg.sample_size or DEFAULT_SAMPLE_SIZE
    )


def lower_ginconv(cfg: ModelConfig, in_features: int, out_features: int) -> InferencePlan:
    """GINConv: raw features aggregate *before* the per-vertex MLP."""
    return _message_passing_plan(
        cfg, in_features, out_features, pre_weighting=True, use_mlp=True
    )


def lower_diffpool(cfg: ModelConfig, in_features: int, out_features: int) -> InferencePlan:
    """DiffPool: embedding GCN + pooling GCN + dense coarsening products.

    Both constituent GCNs read the raw input features; the third stage
    computes S = softmax(pool output), Sᵀ A S and Sᵀ Z as dense products
    whose MAC count is ``E·C + V·C² + V·C·H`` for C clusters and hidden
    width H.
    """
    hidden = cfg.hidden_features
    clusters = max(2, hidden // 4)
    gcn_layers = []
    for index, width in enumerate((hidden, clusters)):
        gcn_layers.append(
            PlanLayer(
                index,
                in_features,
                width,
                (
                    WeightingOp(
                        in_features=in_features,
                        out_features=width,
                        is_input_layer=True,
                        density=None,
                    ),
                    AggregationOp(
                        in_features=in_features,
                        out_features=width,
                        adjacency=FULL_ADJACENCY,
                        aggregator=cfg.aggregator,
                    ),
                ),
            )
        )
    coarsening = PlanLayer(
        2,
        clusters,
        hidden,
        (
            DenseMatmulOp(
                in_features=clusters,
                out_features=hidden,
                macs_per_edge=clusters,
                macs_per_vertex=clusters * clusters + clusters * hidden,
                softmax_ops_per_vertex=clusters,
                output_values=clusters * (clusters + hidden),
            ),
        ),
    )
    return InferencePlan(
        family=cfg.family.lower(),
        in_features=in_features,
        out_features=out_features,
        layers=(*gcn_layers, coarsening),
        global_ops=(PreprocessOp("degree_binning"),),
    )


#: The lowering rule of each Table III family.
LOWERINGS: dict[str, Callable[[ModelConfig, int, int], InferencePlan]] = {
    "gcn": lower_gcn,
    "gat": lower_gat,
    "graphsage": lower_graphsage,
    "ginconv": lower_ginconv,
    "diffpool": lower_diffpool,
}
