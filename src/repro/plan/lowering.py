"""Family → plan lowering.

A *lowering rule* is a pure function ``(ModelConfig, in_features,
out_features) → InferencePlan`` describing how one GNN family decomposes
into phase ops.  The rules for the Table III families are the
:data:`repro.models.lowering.LOWERINGS` table; :func:`lower_model` imports
it on first call so that ``repro.plan`` stays import-light and free of
model dependencies.  Adding a family is one entry in that table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.plan.ir import InferencePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph
    from repro.models.zoo import ModelConfig

__all__ = ["lower", "lower_model"]


def lower_model(config: "ModelConfig", in_features: int, out_features: int) -> InferencePlan:
    """Lower a model configuration for a dataset shape."""
    from repro.models.lowering import LOWERINGS

    key = config.family.strip().lower()
    if key not in LOWERINGS:
        raise KeyError(f"no lowering for family {config.family!r}; known: {list(LOWERINGS)}")
    return LOWERINGS[key](config, in_features, out_features)


def lower(
    family: str,
    graph: "Graph",
    *,
    out_features: int | None = None,
    config: "ModelConfig | None" = None,
) -> InferencePlan:
    """Lower ``family`` for a concrete dataset graph.

    Convenience wrapper resolving the Table III configuration and the
    dataset shape (feature length, label count) before calling the rule.
    """
    from repro.models.zoo import model_config

    cfg = config if config is not None else model_config(family)
    labels = out_features if out_features is not None else max(graph.num_label_classes, 2)
    return lower_model(cfg, graph.feature_length, labels)
