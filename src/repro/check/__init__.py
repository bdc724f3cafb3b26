"""Static analysis for the repo's two load-bearing contracts.

The codebase rests on contracts that executors and the sweep fleet assume
but, before this package, never checked:

* every GNN family lowers to a structurally valid
  :class:`~repro.plan.ir.InferencePlan` that executors price without
  re-validating (the compile-then-execute split), and
* the entire fleet — content-hashed cell keys, chaos replay, resume,
  scale-out byte-diffs — depends on byte determinism.

``repro.check`` makes both machine-checked:

* :mod:`repro.check.verifier` — an IR verification pass over
  :class:`~repro.plan.ir.InferencePlan` in the spirit of compiler IR
  verifiers: a rule table validating op ordering, dataflow widths,
  finiteness and, through one contract table for the five Table III
  families, per-family structure *before* execution.  Wired into
  every executor (``GNNIEExecutor.execute``, ``PlatformModel.execute``,
  ``execute_scaleout``) and memoized per plan content.
* :mod:`repro.check.lint` — an AST linter over the source tree whose rules
  encode this repo's fleet-safety contracts (no unseeded RNG, no wall
  clock feeding row content, no ``id()``-derived keys, canonical JSON in
  store paths, no unordered-set
  iteration feeding hashes, no mutable default arguments).  Any finding
  fails the gate; the one way to suppress one is a per-line
  ``# repro-check: disable=RULE`` comment.

Surfaced as ``python -m repro check`` and ``repro plan --check``.
"""

from repro.check.lint import (
    Finding,
    LintRule,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.check.verifier import (
    PlanVerificationError,
    Violation,
    family_contract,
    plan_violations,
    verify_all_plans,
    verify_counters,
    verify_plan,
)

__all__ = [
    "Finding",
    "LintRule",
    "PlanVerificationError",
    "Violation",
    "family_contract",
    "lint_file",
    "lint_paths",
    "lint_source",
    "plan_violations",
    "verify_all_plans",
    "verify_counters",
    "verify_plan",
]
