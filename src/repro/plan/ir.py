"""Typed phase-op IR describing one GNN inference, independent of backend.

An :class:`InferencePlan` is a sequence of :class:`PlanLayer` stages, each
holding the ordered phase ops of one layer, plus inference-global ops
(host-side preprocessing).  Plans are lowered from a
:class:`~repro.models.zoo.ModelConfig` and a dataset *shape* (input feature
length, label count) — they reference graph data only symbolically, through
:class:`AdjacencyRef` handles, so the same plan can be executed on any graph
of that shape by any executor (the GNNIE simulator, the baseline platform
cost models, or future backends).

Every op is a frozen dataclass carrying only backend-neutral quantities:
feature widths, modeled densities, adjacency handles and structural flags.
Cost-model specifics (cycle counts, cache behaviour, roofline constants)
belong to executors.

Being frozen also makes every op — and whole plans — hashable by content,
which is what lets :func:`repro.check.verifier.verify_plan` memoize one
rule pass per distinct plan no matter how many configs price it.  The
structural invariants ops must satisfy (op ordering, width flow, sign and
finiteness of every quantity) are enforced by that verifier, not here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Union

__all__ = [
    "HIDDEN_DENSITY",
    "AdjacencyRef",
    "FULL_ADJACENCY",
    "WeightingOp",
    "AttentionOp",
    "AggregationOp",
    "DenseMatmulOp",
    "HaloExchangeOp",
    "SampleOp",
    "PreprocessOp",
    "PhaseOp",
    "PlanLayer",
    "InferencePlan",
]

#: Modeled nonzero density of post-ReLU hidden-layer features (shared by the
#: GNNIE engine and the baseline workload estimates; the paper observes the
#: RLC decoder is bypassed after layer 1).
HIDDEN_DENSITY = 0.6


@dataclass(frozen=True)
class AdjacencyRef:
    """Symbolic handle to the adjacency an op aggregates over.

    ``kind`` is ``"full"`` (the dataset adjacency) or ``"sampled"`` (the
    neighbor-sampled subgraph produced by a :class:`SampleOp` with the same
    ``sample_size``).  Executors resolve the handle against the concrete
    graph at execution time.
    """

    kind: str = "full"
    sample_size: int | None = None

    def describe(self) -> str:
        if self.kind == "sampled":
            return f"sampled(k={self.sample_size})"
        return self.kind


FULL_ADJACENCY = AdjacencyRef("full")


@dataclass(frozen=True)
class WeightingOp:
    """One layer's feature transformation (H · W, or the GIN MLP).

    ``density`` is the modeled input density: ``None`` means "use the actual
    dataset feature matrix" (input layers); later layers carry the
    statistical :data:`HIDDEN_DENSITY`.  ``mlp_hidden`` is set when the
    transformation is a two-matrix MLP (GINConv); executors that model the
    MLP explicitly use it, single-GEMM cost models may fold it.
    """

    in_features: int
    out_features: int
    is_input_layer: bool = False
    density: float | None = None
    mlp_hidden: int | None = None

    def describe(self) -> str:
        parts = [f"in={self.in_features}", f"out={self.out_features}"]
        if self.mlp_hidden is not None:
            parts.append(f"mlp_hidden={self.mlp_hidden}")
        parts.append("actual-features" if self.density is None else f"density={self.density}")
        if self.is_input_layer:
            parts.append("input-layer")
        return f"weighting({', '.join(parts)})"


@dataclass(frozen=True)
class AttentionOp:
    """GAT-style per-edge attention coefficients plus softmax normalization."""

    out_features: int
    adjacency: AdjacencyRef = FULL_ADJACENCY

    def describe(self) -> str:
        return f"attention(out={self.out_features}, adj={self.adjacency.describe()})"


@dataclass(frozen=True)
class AggregationOp:
    """Neighborhood reduction over an adjacency handle.

    ``pre_weighting`` marks families that aggregate raw features *before*
    the transformation (GINConv), so the reduction runs at ``in_features``
    width instead of ``out_features``.  ``weighted`` marks attention-scaled
    aggregation (GAT), which costs an extra multiply per edge operand.
    """

    in_features: int
    out_features: int
    adjacency: AdjacencyRef = FULL_ADJACENCY
    pre_weighting: bool = False
    weighted: bool = False
    aggregator: str = "sum"

    @property
    def width(self) -> int:
        """Feature width the reduction actually runs at."""
        return self.in_features if self.pre_weighting else self.out_features

    def describe(self) -> str:
        parts = [f"width={self.width}", f"adj={self.adjacency.describe()}"]
        if self.aggregator != "sum":
            parts.append(f"aggregator={self.aggregator}")
        if self.pre_weighting:
            parts.append("pre-weighting")
        if self.weighted:
            parts.append("weighted")
        return f"aggregation({', '.join(parts)})"


@dataclass(frozen=True)
class DenseMatmulOp:
    """Dense matrix products whose size scales with the graph (DiffPool).

    MAC counts are stored as per-edge and per-vertex factors so the op stays
    graph-independent: executing on a graph with V vertices and E edges
    costs ``E * macs_per_edge + V * macs_per_vertex`` MACs plus
    ``V * softmax_ops_per_vertex`` SFU ops, and writes ``output_values``
    result elements (DiffPool's coarsened adjacency and features).
    """

    in_features: int
    out_features: int
    macs_per_edge: int
    macs_per_vertex: int
    softmax_ops_per_vertex: int = 0
    output_values: int = 0
    label: str = "coarsening"

    def describe(self) -> str:
        return (
            f"dense_matmul({self.label}, in={self.in_features}, out={self.out_features}, "
            f"macs=E*{self.macs_per_edge}+V*{self.macs_per_vertex})"
        )


@dataclass(frozen=True)
class HaloExchangeOp:
    """Inter-chip boundary-feature exchange before one layer's aggregation.

    Emitted only by the multi-chip lowering (``repro.scaleout``): a chip
    owning a vertex partition must receive the features of its *halo* — the
    distinct remote neighbors of its owned vertices — before aggregating.
    ``halo_vertices`` counts those remote vertices for the chip this plan
    belongs to; the traffic is ``halo_vertices * features`` values at the
    layer's aggregation width, priced by the executor against the
    link-bandwidth/latency model of its :class:`~repro.hw.config.GNNIETable`.
    """

    halo_vertices: int
    features: int
    chips: int

    def describe(self) -> str:
        return (
            f"halo_exchange(halo={self.halo_vertices}, features={self.features}, "
            f"chips={self.chips})"
        )


@dataclass(frozen=True)
class SampleOp:
    """Neighbor sampling producing the ``sampled`` adjacency (GraphSAGE)."""

    sample_size: int

    def describe(self) -> str:
        return f"sample(k={self.sample_size})"


@dataclass(frozen=True)
class PreprocessOp:
    """Host-side preprocessing charged once per inference."""

    kind: str = "degree_binning"

    def describe(self) -> str:
        return f"preprocess({self.kind})"


PhaseOp = Union[
    WeightingOp,
    AttentionOp,
    AggregationOp,
    DenseMatmulOp,
    SampleOp,
    PreprocessOp,
    HaloExchangeOp,
]


@dataclass(frozen=True)
class PlanLayer:
    """Ordered phase ops of one layer (one :class:`LayerResult` downstream)."""

    index: int
    in_features: int
    out_features: int
    ops: tuple[PhaseOp, ...]

    def find(self, op_type: type) -> PhaseOp | None:
        """First op of the given type, or ``None``."""
        for op in self.ops:
            if isinstance(op, op_type):
                return op
        return None


@dataclass(frozen=True)
class InferencePlan:
    """A lowered GNN inference: typed phase ops, ready for any executor."""

    family: str
    in_features: int
    out_features: int
    layers: tuple[PlanLayer, ...]
    global_ops: tuple[PhaseOp, ...] = field(default_factory=tuple)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def op_rows(self) -> list[dict[str, object]]:
        """Flat (layer, op, description) rows for reporting."""
        rows: list[dict[str, object]] = [
            {"layer": "-", "op": type(op).__name__, "detail": op.describe()}
            for op in self.global_ops
        ]
        for layer in self.layers:
            for op in layer.ops:
                rows.append(
                    {"layer": layer.index, "op": type(op).__name__, "detail": op.describe()}
                )
        return rows

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable nested representation of the plan."""
        def op_dict(op: PhaseOp) -> dict[str, object]:
            return {"op": type(op).__name__, **asdict(op)}

        return {
            "family": self.family,
            "in_features": self.in_features,
            "out_features": self.out_features,
            "global_ops": [op_dict(op) for op in self.global_ops],
            "layers": [
                {
                    "index": layer.index,
                    "in_features": layer.in_features,
                    "out_features": layer.out_features,
                    "ops": [op_dict(op) for op in layer.ops],
                }
                for layer in self.layers
            ],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)
