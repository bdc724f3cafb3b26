"""Plan-IR verification pass: validate the dataflow before executing it.

Compiler IR verifiers check structural invariants once, before any pass
consumes the IR; this module applies the same discipline to
:class:`~repro.plan.ir.InferencePlan`.  Every rule is an entry of one
literal table, ``_RULES``, under an ID, and its docstring names the
contract it protects; a violated rule raises a typed
:class:`PlanVerificationError` carrying ``(rule, layer, op)`` so executors
fail loudly *before* pricing anything.

Rules split into two tiers:

* **Universal rules** (``P0xx``) hold for every plan any executor may see,
  including hand-built plans of families with no lowering rule:
  known op types, sound layer indexing, op placement/ordering legality,
  finite non-negative quantities.
* **Family contracts** (``P1xx``) encode the per-family structure the
  lowering rules guarantee for the five Table III families (e.g. a GAT
  layer carries exactly one :class:`~repro.plan.ir.AttentionOp`,
  message-passing widths flow layer to layer).  They are one literal
  table, ``_CONTRACTS``; a family without an entry gets the universal
  tier only.

:func:`verify_plan` memoizes by plan content (plans are frozen, hence
hashable), so the sweep fleet verifies each distinct plan
once no matter how many configs it prices — :func:`verify_counters`
exposes ``runs``/``hits`` so tests can pin that.  Verification never
changes a plan: :func:`verify_plan` returns its argument unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

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

__all__ = [
    "PlanVerificationError",
    "Violation",
    "family_contract",
    "plan_violations",
    "verify_all_plans",
    "verify_counters",
    "verify_plan",
]

#: Op types every executor-facing plan may contain.
_KNOWN_OPS = (
    WeightingOp,
    AttentionOp,
    AggregationOp,
    DenseMatmulOp,
    HaloExchangeOp,
    SampleOp,
    PreprocessOp,
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the rule, where, and what went wrong."""

    rule: str
    message: str
    layer: int | None = None
    op: str | None = None

    def describe(self) -> str:
        where = "global" if self.layer is None else f"layer {self.layer}"
        subject = f"{where}/{self.op}" if self.op else where
        return f"[{self.rule}] {subject}: {self.message}"


class PlanVerificationError(ValueError):
    """A plan failed verification.

    Carries the first violation's ``(rule, layer, op)`` as attributes plus
    every violation found on :attr:`violations`, so callers can report the
    full list while ``except`` sites match on the typed error.
    """

    def __init__(self, plan: InferencePlan, violations: tuple[Violation, ...]) -> None:
        first = violations[0]
        self.family = plan.family
        self.rule = first.rule
        self.layer = first.layer
        self.op = first.op
        self.violations = violations
        lines = "; ".join(violation.describe() for violation in violations)
        super().__init__(
            f"invalid {plan.family!r} plan ({len(violations)} violation(s)): {lines}"
        )


VerifierRule = Callable[[InferencePlan], Iterable[Violation]]


# --------------------------------------------------------------------- #
# Family contracts
# --------------------------------------------------------------------- #

FamilyCheck = Callable[[InferencePlan], Iterable[Violation]]


@dataclass(frozen=True)
class FamilyContract:
    """Per-family structural contract derived from the lowering rules.

    ``chain`` declares the message-passing shape — layer *k*'s output width
    is layer *k+1*'s input width, the first layer reads
    ``plan.in_features`` and the last produces ``plan.out_features`` — the
    width-flow rule (``P101``) checks for chain families.  ``check`` adds
    family-specific structure (``P102``).
    """

    family: str
    chain: bool = True
    check: FamilyCheck | None = None


def family_contract(family: str) -> FamilyContract | None:
    """The contract for ``family``, or ``None`` (universal tier only)."""
    return _CONTRACTS.get(family.lower())


# --------------------------------------------------------------------- #
# Universal rules
# --------------------------------------------------------------------- #

def _iter_ops(plan: InferencePlan) -> Iterator[tuple[int | None, object]]:
    """Every op with its layer index (``None`` for inference-global ops)."""
    for op in plan.global_ops:
        yield None, op
    for layer in plan.layers:
        for op in layer.ops:
            yield layer.index, op


def _rule_known_ops(plan: InferencePlan) -> Iterator[Violation]:
    """Every op is a known phase-op type.

    Executors dispatch on op type; an unknown op would either crash the
    per-op handler mid-execution or be silently mispriced by a cost model
    that pattern-matches more loosely.
    """
    for layer_index, op in _iter_ops(plan):
        if not isinstance(op, _KNOWN_OPS):
            yield Violation(
                rule="P001",
                message=f"unknown op type {type(op).__name__}",
                layer=layer_index,
                op=type(op).__name__,
            )


def _rule_layer_structure(plan: InferencePlan) -> Iterator[Violation]:
    """Layers are non-empty, contiguously indexed, and positively sized.

    Downstream accounting (``LayerResult`` pairing, scale-out per-layer
    MAX-combining, span attribution) addresses layers by position and
    assumes ``layer.index`` agrees with it.
    """
    if not plan.layers:
        yield Violation(rule="P002", message="plan has no layers")
        return
    for position, layer in enumerate(plan.layers):
        if layer.index != position:
            yield Violation(
                rule="P002",
                message=f"layer at position {position} carries index {layer.index}",
                layer=layer.index,
            )
        if layer.in_features <= 0 or layer.out_features <= 0:
            yield Violation(
                rule="P002",
                message=(
                    f"non-positive layer width "
                    f"({layer.in_features} -> {layer.out_features})"
                ),
                layer=layer.index,
            )
        if not layer.ops:
            yield Violation(rule="P002", message="layer has no ops", layer=layer.index)


def _rule_preprocess_placement(plan: InferencePlan) -> Iterator[Violation]:
    """Host-side preprocessing only precedes the pipeline.

    :class:`PreprocessOp` is charged once per inference before any layer
    runs (degree binning reorders vertices for the whole run); one inside
    a later layer would claim a mid-pipeline reorder no executor models.
    Legal positions: the plan's ``global_ops`` or layer 0.
    """
    for layer in plan.layers:
        if layer.index == 0:
            continue
        for op in layer.ops:
            if isinstance(op, PreprocessOp):
                yield Violation(
                    rule="P003",
                    message="PreprocessOp outside global ops / layer 0",
                    layer=layer.index,
                    op="PreprocessOp",
                )


def _rule_sample_order(plan: InferencePlan) -> Iterator[Violation]:
    """A sampled adjacency is produced before anything aggregates over it.

    Executors resolve ``AdjacencyRef("sampled", k)`` against the subgraph
    a :class:`SampleOp` with the same ``k`` produces; an op referencing a
    sample no earlier op in its layer produced would price a subgraph
    that does not exist.
    """
    for layer in plan.layers:
        sampled: set[int] = set()
        for op in layer.ops:
            if isinstance(op, SampleOp):
                if op.sample_size <= 0:
                    yield Violation(
                        rule="P004",
                        message=f"non-positive sample size {op.sample_size}",
                        layer=layer.index,
                        op="SampleOp",
                    )
                else:
                    sampled.add(op.sample_size)
                continue
            ref = getattr(op, "adjacency", None)
            if not isinstance(ref, AdjacencyRef):
                continue
            if ref.kind not in ("full", "sampled"):
                yield Violation(
                    rule="P004",
                    message=f"unknown adjacency kind {ref.kind!r}",
                    layer=layer.index,
                    op=type(op).__name__,
                )
            elif ref.kind == "sampled":
                if ref.sample_size is None or ref.sample_size <= 0:
                    yield Violation(
                        rule="P004",
                        message="sampled adjacency without a positive sample size",
                        layer=layer.index,
                        op=type(op).__name__,
                    )
                elif ref.sample_size not in sampled:
                    yield Violation(
                        rule="P004",
                        message=(
                            f"sampled(k={ref.sample_size}) adjacency has no "
                            "preceding SampleOp in this layer"
                        ),
                        layer=layer.index,
                        op=type(op).__name__,
                    )


def _rule_halo_placement(plan: InferencePlan) -> Iterator[Violation]:
    """Halo exchanges feed the aggregation immediately after them.

    The scale-out lowering splices one :class:`HaloExchangeOp` directly
    before the :class:`AggregationOp` it feeds, at that op's reduction
    width, and only for multi-chip (``chips > 1``) plans — the executor
    prices the exchange as communication overlapping nothing, so a halo
    op anywhere else would charge link traffic no aggregation consumes.
    """
    for layer in plan.layers:
        for position, op in enumerate(layer.ops):
            if not isinstance(op, HaloExchangeOp):
                continue
            if op.chips <= 1:
                yield Violation(
                    rule="P005",
                    message=f"halo exchange in a {op.chips}-chip plan",
                    layer=layer.index,
                    op="HaloExchangeOp",
                )
            follower = layer.ops[position + 1] if position + 1 < len(layer.ops) else None
            if not isinstance(follower, AggregationOp):
                yield Violation(
                    rule="P005",
                    message="HaloExchangeOp is not immediately followed by an AggregationOp",
                    layer=layer.index,
                    op="HaloExchangeOp",
                )
            elif op.features != follower.width:
                yield Violation(
                    rule="P005",
                    message=(
                        f"halo width {op.features} != aggregation width "
                        f"{follower.width}"
                    ),
                    layer=layer.index,
                    op="HaloExchangeOp",
                )
    for op in plan.global_ops:
        if isinstance(op, HaloExchangeOp):
            yield Violation(
                rule="P005",
                message="HaloExchangeOp among inference-global ops",
                op="HaloExchangeOp",
            )


#: Numeric op fields that must be strictly positive when set.
_POSITIVE_FIELDS = frozenset(
    {"in_features", "out_features", "features", "mlp_hidden", "sample_size", "chips"}
)
#: Numeric op fields that may be zero but never negative.
_NON_NEGATIVE_FIELDS = frozenset(
    {
        "halo_vertices",
        "macs_per_edge",
        "macs_per_vertex",
        "softmax_ops_per_vertex",
        "output_values",
    }
)


def _rule_finite_quantities(plan: InferencePlan) -> Iterator[Violation]:
    """Every quantity on every frozen op is finite and correctly signed.

    Cost models multiply these quantities into cycle and energy totals; a
    NaN, infinity or negative count would flow silently into result rows
    (and through geomeans into every aggregate) instead of failing here.
    Widths are strictly positive, work counts non-negative, modeled
    densities in (0, 1].
    """
    for layer_index, op in _iter_ops(plan):
        op_name = type(op).__name__
        for spec in fields(op):  # type: ignore[arg-type]
            value = getattr(op, spec.name)
            if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if not math.isfinite(value):
                yield Violation(
                    rule="P006",
                    message=f"{spec.name} is not finite ({value!r})",
                    layer=layer_index,
                    op=op_name,
                )
            elif spec.name == "density":
                if not 0.0 < value <= 1.0:
                    yield Violation(
                        rule="P006",
                        message=f"density {value!r} outside (0, 1]",
                        layer=layer_index,
                        op=op_name,
                    )
            elif spec.name in _POSITIVE_FIELDS:
                if value <= 0:
                    yield Violation(
                        rule="P006",
                        message=f"{spec.name} must be positive, got {value!r}",
                        layer=layer_index,
                        op=op_name,
                    )
            elif spec.name in _NON_NEGATIVE_FIELDS:
                if value < 0:
                    yield Violation(
                        rule="P006",
                        message=f"{spec.name} must be non-negative, got {value!r}",
                        layer=layer_index,
                        op=op_name,
                    )


# --------------------------------------------------------------------- #
# Family-contract rules
# --------------------------------------------------------------------- #

def _non_halo_ops(layer: PlanLayer) -> list[object]:
    return [op for op in layer.ops if not isinstance(op, HaloExchangeOp)]


def _rule_width_flow(plan: InferencePlan) -> Iterator[Violation]:
    """Feature widths flow layer to layer for chain-shaped families.

    For the message-passing families the lowering rules guarantee
    layer *k*'s output width equals layer *k+1*'s input width, the first
    layer reads the dataset feature length and the last produces the
    label width — the dataflow executors rely on when they pick record
    sizes and buffer capacities per layer.  Families whose contract
    declares ``chain=False`` (DiffPool's two parallel GCN stages both
    read the raw input) check their shape in their own contract.
    """
    contract = family_contract(plan.family)
    if contract is None or not contract.chain or not plan.layers:
        return
    first = plan.layers[0]
    if first.in_features != plan.in_features:
        yield Violation(
            rule="P101",
            message=(
                f"first layer reads {first.in_features} features, "
                f"plan input is {plan.in_features}"
            ),
            layer=first.index,
        )
    last = plan.layers[-1]
    if last.out_features != plan.out_features:
        yield Violation(
            rule="P101",
            message=(
                f"last layer produces {last.out_features} features, "
                f"plan output is {plan.out_features}"
            ),
            layer=last.index,
        )
    for previous, current in zip(plan.layers, plan.layers[1:]):
        if previous.out_features != current.in_features:
            yield Violation(
                rule="P101",
                message=(
                    f"layer {previous.index} output width {previous.out_features} "
                    f"!= layer {current.index} input width {current.in_features}"
                ),
                layer=current.index,
            )


def _rule_family_structure(plan: InferencePlan) -> Iterator[Violation]:
    """The plan matches its family's structural contract.

    Derived from the lowering rules' guarantees: a GAT layer carries
    exactly one :class:`AttentionOp` feeding a weighted aggregation, a
    GraphSAGE layer samples before it aggregates, GINConv aggregates raw
    features before its MLP, DiffPool is two GCN stages plus one dense
    coarsening layer.  Families without a contract (hand-built plans)
    are exempt.
    """
    contract = family_contract(plan.family)
    if contract is None or contract.check is None:
        return
    yield from contract.check(plan)


def _op_width_mismatches(layer: PlanLayer) -> Iterator[Violation]:
    """Shared helper: ops of a chain layer run at the layer's widths."""
    for op in layer.ops:
        if isinstance(op, (WeightingOp, AggregationOp)):
            if op.in_features != layer.in_features or op.out_features != layer.out_features:
                yield Violation(
                    rule="P102",
                    message=(
                        f"{type(op).__name__} widths "
                        f"({op.in_features} -> {op.out_features}) != layer widths "
                        f"({layer.in_features} -> {layer.out_features})"
                    ),
                    layer=layer.index,
                    op=type(op).__name__,
                )
        elif isinstance(op, AttentionOp) and op.out_features != layer.out_features:
            yield Violation(
                rule="P102",
                message=(
                    f"AttentionOp width {op.out_features} != layer output "
                    f"width {layer.out_features}"
                ),
                layer=layer.index,
                op="AttentionOp",
            )


def _message_passing_check(
    *,
    attention: bool,
    sampled: bool,
    pre_weighting: bool,
    mlp: bool,
) -> FamilyCheck:
    """Contract factory for the four layer-stacked message-passing families."""

    def check(plan: InferencePlan) -> Iterator[Violation]:
        for layer in plan.layers:
            yield from _op_width_mismatches(layer)
            ops = _non_halo_ops(layer)
            weightings = [op for op in ops if isinstance(op, WeightingOp)]
            aggregations = [op for op in ops if isinstance(op, AggregationOp)]
            attentions = [op for op in ops if isinstance(op, AttentionOp)]
            samples = [op for op in ops if isinstance(op, SampleOp)]
            if len(weightings) != 1 or len(aggregations) != 1:
                yield Violation(
                    rule="P102",
                    message=(
                        f"expected exactly one WeightingOp and one AggregationOp, "
                        f"got {len(weightings)} and {len(aggregations)}"
                    ),
                    layer=layer.index,
                )
                continue
            aggregation = aggregations[0]
            weighting = weightings[0]
            if len(attentions) != (1 if attention else 0):
                yield Violation(
                    rule="P102",
                    message=(
                        f"expected exactly {'one' if attention else 'no'} "
                        f"AttentionOp, got {len(attentions)}"
                    ),
                    layer=layer.index,
                    op="AttentionOp",
                )
            if aggregation.weighted != attention:
                yield Violation(
                    rule="P102",
                    message=(
                        "attention-weighted aggregation"
                        if aggregation.weighted
                        else "aggregation is not attention-weighted"
                    ),
                    layer=layer.index,
                    op="AggregationOp",
                )
            if attention and attentions and attentions[0].adjacency != aggregation.adjacency:
                yield Violation(
                    rule="P102",
                    message="attention and aggregation run over different adjacencies",
                    layer=layer.index,
                    op="AttentionOp",
                )
            if len(samples) != (1 if sampled else 0):
                yield Violation(
                    rule="P102",
                    message=(
                        f"expected exactly {'one' if sampled else 'no'} SampleOp, "
                        f"got {len(samples)}"
                    ),
                    layer=layer.index,
                    op="SampleOp",
                )
            expected_kind = "sampled" if sampled else "full"
            if aggregation.adjacency.kind != expected_kind:
                yield Violation(
                    rule="P102",
                    message=(
                        f"aggregation over {aggregation.adjacency.kind!r} adjacency, "
                        f"expected {expected_kind!r}"
                    ),
                    layer=layer.index,
                    op="AggregationOp",
                )
            if aggregation.pre_weighting != pre_weighting:
                yield Violation(
                    rule="P102",
                    message=(
                        "pre-weighting aggregation"
                        if aggregation.pre_weighting
                        else "aggregation is not pre-weighting"
                    ),
                    layer=layer.index,
                    op="AggregationOp",
                )
            if mlp and weighting.mlp_hidden is None:
                yield Violation(
                    rule="P102",
                    message="weighting is not an MLP (mlp_hidden unset)",
                    layer=layer.index,
                    op="WeightingOp",
                )
    return check


def _diffpool_check(plan: InferencePlan) -> Iterator[Violation]:
    """DiffPool: two GCN stages over the raw input plus a dense coarsening."""
    if len(plan.layers) != 3:
        yield Violation(
            rule="P102",
            message=f"expected 3 layers (embed, pool, coarsen), got {len(plan.layers)}",
        )
        return
    for layer in plan.layers[:2]:
        yield from _op_width_mismatches(layer)
        if layer.in_features != plan.in_features:
            yield Violation(
                rule="P102",
                message=(
                    f"GCN stage reads {layer.in_features} features, "
                    f"both stages read the raw input ({plan.in_features})"
                ),
                layer=layer.index,
            )
        ops = _non_halo_ops(layer)
        if not any(isinstance(op, AggregationOp) for op in ops) or any(
            isinstance(op, (AttentionOp, SampleOp, DenseMatmulOp)) for op in ops
        ):
            yield Violation(
                rule="P102",
                message="GCN stage must be weighting + aggregation only",
                layer=layer.index,
            )
    coarsening = plan.layers[2]
    dense = [op for op in coarsening.ops if isinstance(op, DenseMatmulOp)]
    if len(dense) != 1:
        yield Violation(
            rule="P102",
            message=f"coarsening layer carries {len(dense)} DenseMatmulOps, expected 1",
            layer=coarsening.index,
            op="DenseMatmulOp",
        )
        return
    if coarsening.in_features != plan.layers[1].out_features:
        yield Violation(
            rule="P102",
            message=(
                f"coarsening reads {coarsening.in_features} features, "
                f"pooling stage produced {plan.layers[1].out_features}"
            ),
            layer=coarsening.index,
        )
    yield from _op_width_mismatches(coarsening)


#: The structural contract of each Table III family; a family without one
#: (a hand-built plan) is checked by the universal rules only.
_CONTRACTS: dict[str, FamilyContract] = {
    "gcn": FamilyContract(
        family="gcn",
        check=_message_passing_check(
            attention=False, sampled=False, pre_weighting=False, mlp=False
        ),
    ),
    "gat": FamilyContract(
        family="gat",
        check=_message_passing_check(
            attention=True, sampled=False, pre_weighting=False, mlp=False
        ),
    ),
    "graphsage": FamilyContract(
        family="graphsage",
        check=_message_passing_check(
            attention=False, sampled=True, pre_weighting=False, mlp=False
        ),
    ),
    "ginconv": FamilyContract(
        family="ginconv",
        check=_message_passing_check(
            attention=False, sampled=False, pre_weighting=True, mlp=True
        ),
    ),
    "diffpool": FamilyContract(family="diffpool", chain=False, check=_diffpool_check),
}


#: Every rule by ID, in the order a plan is checked and its violations
#: are reported.
_RULES: dict[str, VerifierRule] = {
    "P001": _rule_known_ops,
    "P002": _rule_layer_structure,
    "P003": _rule_preprocess_placement,
    "P004": _rule_sample_order,
    "P005": _rule_halo_placement,
    "P006": _rule_finite_quantities,
    "P101": _rule_width_flow,
    "P102": _rule_family_structure,
}


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #

#: Verified-plan memo keyed by plan content (plans are frozen/hashable).
_MEMO: dict[InferencePlan, tuple[Violation, ...]] = {}
_MEMO_LIMIT = 4096

_COUNTERS = {"runs": 0, "hits": 0}


def verify_counters() -> dict[str, int]:
    """Snapshot of the memo counters (``runs`` = full rule passes)."""
    return dict(_COUNTERS)


def plan_violations(plan: InferencePlan) -> tuple[Violation, ...]:
    """Run every rule over ``plan`` and return all violations."""
    violations: list[Violation] = []
    for rule in _RULES.values():
        violations.extend(rule(plan))
    return tuple(violations)


def verify_plan(plan: InferencePlan) -> InferencePlan:
    """Verify a plan, raising :class:`PlanVerificationError` on violations.

    Memoized by plan content: re-verifying an already-seen plan (the batch
    path pricing thousands of configs against one plan, or a sweep
    re-lowering an identical plan per cell) costs one dict lookup.
    Returns the plan unchanged so call sites can verify inline.
    """
    cached = _MEMO.get(plan)
    if cached is None:
        _COUNTERS["runs"] += 1
        cached = plan_violations(plan)
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[plan] = cached
    else:
        _COUNTERS["hits"] += 1
    if cached:
        raise PlanVerificationError(plan, cached)
    return plan


def verify_all_plans() -> list[dict[str, object]]:
    """Lower and verify every family on every dataset shape; return a report.

    Drives the lowering rules against the dataset registry's shapes
    (feature length, label count) — no graphs are built, so the full
    5 x 5 matrix verifies in milliseconds.  One report row per pair:
    ``{"family", "dataset", "ok", "violations"}``, families in sorted
    order.
    """
    from repro.datasets.registry import dataset_names, dataset_spec
    from repro.models.zoo import MODEL_FAMILIES, model_config
    from repro.plan.lowering import lower_model

    rows: list[dict[str, object]] = []
    for family in sorted(MODEL_FAMILIES):
        config = model_config(family)
        for dataset in dataset_names():
            spec = dataset_spec(dataset)
            plan = lower_model(config, spec.feature_length, max(spec.num_labels, 2))
            violations = plan_violations(plan)
            rows.append(
                {
                    "family": family,
                    "dataset": dataset,
                    "ok": not violations,
                    "violations": [violation.describe() for violation in violations],
                }
            )
    return rows
