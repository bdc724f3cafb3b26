"""Per-layer workload accounting derived from inference plans.

The cross-platform comparisons (Figs. 12, 13, 15) need the *amount of work*
each GNN performs on each dataset — dense and sparse-aware MAC counts for
Weighting, scalar operation counts for Aggregation and attention, and the
minimum DRAM traffic — without paying for a full functional forward pass on
the larger graphs.  Historically this module re-derived those counts from
the family name in parallel with the simulation engine; it now *consumes*
the same :class:`~repro.plan.ir.InferencePlan` the GNNIE executor runs, so
every platform prices exactly one shared description of the workload.

Both operation orders are accounted:

* ``weighting_first`` (GNNIE, AWB-GCN): Aggregation runs on F_out-wide
  weighted features — Ã (H W),
* ``aggregation_first`` (HyGCN): Aggregation runs on F_in-wide raw features —
  (Ã H) W, which is roughly an order of magnitude more work for the
  high-dimensional input layers (paper, Sections III and VII).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.plan.ir import (
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    InferencePlan,
    PreprocessOp,
    SampleOp,
    WeightingOp,
)

__all__ = [
    "LayerCosts",
    "WorkloadEstimate",
    "workload_from_plan",
]


@dataclass(frozen=True)
class LayerCosts:
    """Operation counts of one layer of one GNN on one graph."""

    layer_index: int
    in_features: int
    out_features: int
    dense_weighting_macs: int
    sparse_weighting_macs: int
    aggregation_ops_weighting_first: int
    aggregation_ops_aggregation_first: int
    attention_ops: int
    sampling_ops: int
    dram_bytes: int


@dataclass(frozen=True)
class WorkloadEstimate:
    """Per-layer costs plus totals for one (graph, GNN family) pair."""

    dataset: str
    family: str
    layers: tuple[LayerCosts, ...]

    def total(self, attribute: str) -> int:
        return int(sum(getattr(layer, attribute) for layer in self.layers))

    @property
    def dense_weighting_macs(self) -> int:
        return self.total("dense_weighting_macs")

    @property
    def sparse_weighting_macs(self) -> int:
        return self.total("sparse_weighting_macs")

    @property
    def aggregation_ops(self) -> int:
        return self.total("aggregation_ops_weighting_first")

    @property
    def aggregation_ops_aggregation_first(self) -> int:
        return self.total("aggregation_ops_aggregation_first")

    @property
    def attention_ops(self) -> int:
        return self.total("attention_ops")

    @property
    def sampling_ops(self) -> int:
        return self.total("sampling_ops")

    @property
    def dram_bytes(self) -> int:
        return self.total("dram_bytes")


def workload_from_plan(plan: InferencePlan, graph: Graph) -> WorkloadEstimate:
    """Price an inference plan on a concrete graph, op by op.

    This is the single workload derivation shared by all baseline platform
    executors: every op contributes its analytic operation counts, resolved
    against the graph's vertex/edge statistics.
    """
    from repro.sim.batch import pricing_context

    num_vertices = graph.num_vertices
    num_edges = graph.num_edges  # directed (2x undirected)
    input_nonzeros = pricing_context(graph).input_nonzeros()
    edge_counts: dict[AdjacencyRef, int] = {}

    def resolve_edges(ref: AdjacencyRef) -> int:
        if ref not in edge_counts:
            if ref.kind == "sampled":
                edge_counts[ref] = int(
                    np.minimum(graph.degrees(), ref.sample_size or 25).sum()
                )
            else:
                edge_counts[ref] = num_edges
        return edge_counts[ref]

    layers: list[LayerCosts] = []
    for stage in plan.layers:
        dense_macs = sparse_macs = 0
        aggregation_wf = aggregation_af = 0
        attention_ops = sampling_ops = 0
        dram_bytes = 0
        for op in stage.ops:
            if isinstance(op, WeightingOp):
                if op.density is None:
                    nonzeros = input_nonzeros
                else:
                    nonzeros = int(round(op.density * num_vertices * op.in_features))
                if op.mlp_hidden is not None:
                    hidden = op.mlp_hidden
                    dense_macs += num_vertices * (
                        op.in_features * hidden + hidden * op.out_features
                    )
                    sparse_macs += (
                        nonzeros * hidden + num_vertices * hidden * op.out_features
                    )
                else:
                    dense_macs += num_vertices * op.in_features * op.out_features
                    sparse_macs += nonzeros * op.out_features
                dram_bytes += (
                    (nonzeros if op.density is None else num_vertices * op.in_features)
                    + num_vertices * op.out_features
                    + op.in_features * op.out_features
                )
            elif isinstance(op, AggregationOp):
                edges = resolve_edges(op.adjacency)
                aggregation_wf += (edges + num_vertices) * op.width
                aggregation_af += (edges + num_vertices) * op.in_features
            elif isinstance(op, AttentionOp):
                edges = resolve_edges(op.adjacency)
                attention_ops += 2 * num_vertices * op.out_features + 5 * edges
            elif isinstance(op, SampleOp):
                sampling_ops += num_vertices * op.sample_size
            elif isinstance(op, DenseMatmulOp):
                macs = (
                    num_edges * op.macs_per_edge + num_vertices * op.macs_per_vertex
                )
                dense_macs += macs
                sparse_macs += macs
                attention_ops += num_vertices * op.softmax_ops_per_vertex
                dram_bytes += op.output_values
            elif isinstance(op, PreprocessOp):
                pass  # host-side work, not charged to the platforms
            else:
                raise TypeError(f"workload estimation cannot price op {op!r}")
        layers.append(
            LayerCosts(
                layer_index=stage.index,
                in_features=stage.in_features,
                out_features=stage.out_features,
                dense_weighting_macs=int(dense_macs),
                sparse_weighting_macs=int(sparse_macs),
                aggregation_ops_weighting_first=int(aggregation_wf),
                aggregation_ops_aggregation_first=int(aggregation_af),
                attention_ops=int(attention_ops),
                sampling_ops=int(sampling_ops),
                dram_bytes=int(dram_bytes),
            )
        )
    return WorkloadEstimate(dataset=graph.name, family=plan.family, layers=tuple(layers))
