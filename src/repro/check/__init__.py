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
  verifiers: a rule registry validating op ordering, dataflow widths,
  finiteness and per-family structure *before* execution.  Wired into
  every executor (``GNNIEExecutor.execute``, ``PlatformModel.execute``,
  ``execute_scaleout``) and memoized per plan content.
* :mod:`repro.check.lint` — an AST linter over the source tree whose rules
  encode this repo's fleet-safety contracts (no unseeded RNG, no wall
  clock feeding row content, no ``id()``-derived keys, canonical JSON in
  store paths, no unordered-set
  iteration feeding hashes, no mutable default arguments).  Per-line
  suppression via ``# repro-check: disable=RULE``.
* :mod:`repro.check.baseline` — a committed findings baseline so the CI
  gate starts green while findings are burned down.

Surfaced as ``python -m repro check`` and ``repro plan --check``.
"""

from repro.check.baseline import (
    filter_findings,
    load_baseline,
    write_baseline,
)
from repro.check.lint import (
    Finding,
    LintRule,
    lint_file,
    lint_paths,
    lint_rules,
    lint_source,
)
from repro.check.verifier import (
    PlanVerificationError,
    Violation,
    family_contract,
    plan_violations,
    register_family_contract,
    register_verifier_rule,
    verifier_rules,
    verify_counters,
    verify_plan,
    verify_registered_plans,
)

__all__ = [
    "Finding",
    "LintRule",
    "PlanVerificationError",
    "Violation",
    "family_contract",
    "filter_findings",
    "lint_file",
    "lint_paths",
    "lint_rules",
    "lint_source",
    "load_baseline",
    "plan_violations",
    "register_family_contract",
    "register_verifier_rule",
    "verifier_rules",
    "verify_counters",
    "verify_plan",
    "verify_registered_plans",
]
