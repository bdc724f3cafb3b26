"""Determinism linter: AST rules encoding the fleet's byte-determinism contracts.

The sweep fleet's exactly-once resume, chaos replay, and scale-out
byte-diffs all assume that re-running a cell reproduces its row byte for
byte.  Each rule here encodes one way that contract has broken (or nearly
broken) in practice, with an ID and a docstring naming the contract it
protects:

=====  ================================================================
ID     Contract
=====  ================================================================
D101   No unseeded global RNG (``random.*`` / ``np.random.*``); use
       ``random.Random(seed)`` / ``np.random.default_rng(seed)``.
D102   No wall clock (``time.time``, ``datetime.now``, …) — rows keyed
       or filled from the clock differ across runs.
D103   No ``id()``-derived keys: ids are reused after garbage
       collection, so an ``id()``-keyed memo can alias two objects.
D104   ``json.dumps`` in store-row paths must pass ``sort_keys=True``;
       dict order is insertion order, so unsorted dumps encode call
       history into bytes.
D105   No iteration over set displays/constructors: set order varies
       with insertion history and hash seeding.
D106   No mutable default arguments: shared defaults accumulate state
       across calls, making output depend on call history.
=====  ================================================================

Suppress a finding on its line with ``# repro-check: disable=D102`` (a
comma list, or ``disable=all``).  Suppressions are parsed from the token
stream, so they work on any physical line of a multi-line statement.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "LintRule",
    "lint_file",
    "lint_paths",
    "lint_source",
]

_SUPPRESS_PREFIX = "# repro-check:"


@dataclass(frozen=True)
class Finding:
    """One linter finding."""

    rule: str
    path: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintContext:
    """What a rule sees: the parsed module plus its display path."""

    path: str
    tree: ast.Module


RuleCheck = Callable[[LintContext], Iterable[Finding]]


@dataclass(frozen=True)
class LintRule:
    """A rule's one-line contract and its check; ``_RULES`` keys it by ID."""

    contract: str
    check: RuleCheck


# --------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------- #

def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# --------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------- #

#: ``random.*`` attributes that do NOT touch the global RNG stream.
_RANDOM_SAFE = frozenset({"Random", "SystemRandom", "getstate", "setstate"})
#: ``np.random`` / ``numpy.random`` attributes that are generator-safe.
_NP_RANDOM_SAFE = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})


def _check_unseeded_random(context: LintContext) -> Iterator[Finding]:
    """Fleet rows must replay byte-identically; the global ``random`` and
    legacy ``np.random`` streams are process-wide mutable state that any
    import can perturb, so every draw must come from an explicitly seeded
    generator object instead."""
    for call in _walk_calls(context.tree):
        name = _dotted_name(call.func)
        if name is None or "." not in name:
            continue
        head, _, attr = name.rpartition(".")
        if head == "random" and attr not in _RANDOM_SAFE:
            yield Finding(
                rule="D101",
                path=context.path,
                line=call.lineno,
                message=f"call to global-stream random.{attr}(); seed an explicit random.Random",
            )
        elif head in ("np.random", "numpy.random") and attr not in _NP_RANDOM_SAFE:
            yield Finding(
                rule="D101",
                path=context.path,
                line=call.lineno,
                message=f"call to legacy {head}.{attr}(); use np.random.default_rng(seed)",
            )


#: Clock calls that leak wall time (monotonic/perf counters are fine for
#: *measuring*, but only the wall-clock family can leak into row bytes).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)


def _check_wall_clock(context: LintContext) -> Iterator[Finding]:
    """Cell keys, row content, and chaos schedules must be pure functions
    of their inputs; ``time.time()``/``datetime.now()`` make them
    functions of when the fleet happened to run.  ``time.perf_counter``
    and ``time.monotonic`` are allowed (measurement, not content)."""
    for call in _walk_calls(context.tree):
        name = _dotted_name(call.func)
        if name in _WALL_CLOCK:
            yield Finding(
                rule="D102",
                path=context.path,
                line=call.lineno,
                message=f"wall-clock call {name}(); timestamps never replay",
            )


def _check_id_keys(context: LintContext) -> Iterator[Finding]:
    """CPython reuses object ids after garbage collection, so an
    ``id()``-keyed memo can silently serve entry A's value for object B.
    Key memos by content or by a name their owner controls instead (the
    pricing context keys on plan adjacency handles)."""
    for call in _walk_calls(context.tree):
        if isinstance(call.func, ast.Name) and call.func.id == "id" and call.args:
            yield Finding(
                rule="D103",
                path=context.path,
                line=call.lineno,
                message="id()-derived key; ids are reused after garbage collection",
            )


#: Modules whose bytes land in (or feed hashes of) store rows.
_STORE_PATH_MARKERS = (
    "repro/sweep/",
    "repro/faults/",
    "repro/analysis/",
    "repro/check/",
)


def _in_store_path(path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(marker in posix for marker in _STORE_PATH_MARKERS)


def _check_json_sort_keys(context: LintContext) -> Iterator[Finding]:
    """Store rows are canonical JSON: dict order is insertion order, so a
    dump without ``sort_keys=True`` encodes the *construction history* of
    a dict into row bytes, breaking resume byte-diffs the moment a field
    is assembled in a different order.  Scoped to modules whose output
    lands in (or keys) store rows."""
    if not _in_store_path(context.path):
        return
    for call in _walk_calls(context.tree):
        name = _dotted_name(call.func)
        if name not in ("json.dumps", "json.dump"):
            continue
        sorted_keys = False
        for keyword in call.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                sorted_keys = isinstance(value, ast.Constant) and value.value is True
        if not sorted_keys:
            yield Finding(
                rule="D104",
                path=context.path,
                line=call.lineno,
                message=f"{name} without sort_keys=True in a store-row path",
            )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _check_set_iteration(context: LintContext) -> Iterator[Finding]:
    """Set iteration order depends on insertion history and hash values,
    so a loop over a set feeding a hash, a JSON row, or a schedule is
    order-nondeterministic.  Iterate ``sorted(...)`` instead — the rule
    flags only *direct* iteration over a set display, comprehension, or
    ``set()``/``frozenset()`` call."""
    iterables: list[tuple[ast.AST, int]] = []
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append((node.iter, node.iter.lineno))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                iterables.append((comp.iter, comp.iter.lineno))
    for expr, line in iterables:
        if _is_set_expression(expr):
            yield Finding(
                rule="D105",
                path=context.path,
                line=line,
                message="iteration over an unordered set; wrap in sorted(...)",
            )


def _check_mutable_defaults(context: LintContext) -> Iterator[Finding]:
    """A mutable default is evaluated once and shared by every call, so
    output comes to depend on call history — the same class of bug as an
    unseeded RNG, just slower to surface."""
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                yield Finding(
                    rule="D106",
                    path=context.path,
                    line=default.lineno,
                    message=f"mutable default argument in {node.name}()",
                )


#: Every rule by ID, in the order a module is checked.
_RULES: dict[str, LintRule] = {
    "D101": LintRule(
        "no unseeded global RNG — use random.Random(seed) / np.random.default_rng(seed)",
        _check_unseeded_random,
    ),
    "D102": LintRule(
        "no wall clock — rows keyed or filled from the clock never replay",
        _check_wall_clock,
    ),
    "D103": LintRule("no id()-derived keys", _check_id_keys),
    "D104": LintRule(
        "json.dumps in store-row paths must pass sort_keys=True",
        _check_json_sort_keys,
    ),
    "D105": LintRule(
        "no iteration over set displays/constructors — order is unstable",
        _check_set_iteration,
    ),
    "D106": LintRule(
        "no mutable default arguments — shared defaults accumulate state",
        _check_mutable_defaults,
    ),
}


# --------------------------------------------------------------------- #
# Suppressions and entry points
# --------------------------------------------------------------------- #

def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Per-line suppressed rule IDs; ``None`` means every rule (``all``).

    Parsed from the token stream so a directive anywhere on a multi-line
    statement's physical line applies to findings reported on that line.
    """
    suppressed: dict[int, frozenset[str] | None] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            comment = token.string.strip()
            if not comment.startswith(_SUPPRESS_PREFIX):
                continue
            directive = comment[len(_SUPPRESS_PREFIX):].strip()
            if not directive.startswith("disable="):
                continue
            spec = directive[len("disable="):].split()[0]
            line = token.start[0]
            existing = suppressed.get(line, frozenset())
            if spec == "all" or existing is None:
                suppressed[line] = None
            else:
                rules = frozenset(part.strip() for part in spec.split(",") if part.strip())
                suppressed[line] = rules | existing
    except tokenize.TokenError:
        pass
    return suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one module's source, honoring per-line suppressions.

    ``rules`` restricts the pass to a subset of rule IDs (unknown IDs
    raise).  Findings are sorted by (line, rule).
    """
    selected = _select_rules(rules)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        line = error.lineno or 1
        return [
            Finding(rule="D100", path=path, line=line, message=f"syntax error: {error.msg}")
        ]
    context = LintContext(path=path, tree=tree)
    suppressed = _suppressions(source)
    findings: list[Finding] = []
    for rule in selected:
        for finding in rule.check(context):
            disabled = suppressed.get(finding.line, frozenset())
            if disabled is None or finding.rule in disabled:
                continue
            findings.append(finding)
    return sorted(findings, key=lambda finding: (finding.line, finding.rule))


def _select_rules(rules: Iterable[str] | None) -> list[LintRule]:
    if rules is None:
        return list(_RULES.values())
    selected: list[LintRule] = []
    for rule_id in rules:
        if rule_id not in _RULES:
            raise KeyError(f"unknown lint rule {rule_id!r}; known: {sorted(_RULES)}")
        selected.append(_RULES[rule_id])
    return selected


def lint_file(
    path: str | Path,
    *,
    root: str | Path | None = None,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one file; display paths are relative to ``root`` when given."""
    file_path = Path(path)
    display = _display_path(file_path, root)
    return lint_source(file_path.read_text(encoding="utf-8"), display, rules=rules)


def lint_paths(
    paths: Iterable[str | Path],
    *,
    root: str | Path | None = None,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Files are visited in sorted order so output is deterministic.  Returns
    findings sorted by (path, line, rule).
    """
    files: set[Path] = set()
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            files.update(entry_path.rglob("*.py"))
        else:
            files.add(entry_path)
    findings: list[Finding] = []
    for file_path in sorted(files):
        findings.extend(lint_file(file_path, root=root, rules=rules))
    return sorted(findings, key=lambda finding: (finding.path, finding.line, finding.rule))


def _display_path(path: Path, root: str | Path | None) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
