"""Backend-neutral inference plans: the IR between models and executors.

The package splits *what a GNN computes* from *what it costs on a platform*:

* :mod:`repro.plan.ir` — the typed phase ops (:class:`WeightingOp`,
  :class:`AggregationOp`, :class:`AttentionOp`, :class:`DenseMatmulOp`,
  :class:`SampleOp`, :class:`PreprocessOp`) and the :class:`InferencePlan`
  container they form,
* :mod:`repro.plan.lowering` — :func:`lower` / :func:`lower_model`, which
  look the family up in the :data:`repro.models.lowering.LOWERINGS` table,
* :mod:`repro.plan.executor` — the :class:`Executor` protocol and the
  backend table (GNNIE plus the baseline platforms).

Plans handed to any executor are structurally verified first by
:mod:`repro.check.verifier` (memoized per plan content) — see the
"Static analysis" section of the README for the rules.

Adding a sixth GNN family means one entry in ``LOWERINGS``; adding a new
cost model means one entry in the backend table.  A hand-built plan needs
no lowering entry: it is verified against the universal rules and executes
as it stands.
"""

from repro.plan.executor import Executor, executor, executor_names
from repro.plan.ir import (
    FULL_ADJACENCY,
    HIDDEN_DENSITY,
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    HaloExchangeOp,
    InferencePlan,
    PhaseOp,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
)
from repro.plan.lowering import lower, lower_model

__all__ = [
    "AdjacencyRef",
    "FULL_ADJACENCY",
    "HIDDEN_DENSITY",
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
    "lower",
    "lower_model",
    "Executor",
    "executor",
    "executor_names",
]
