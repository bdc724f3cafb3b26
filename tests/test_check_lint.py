"""The determinism linter: each rule flags its minimal offending snippet.

One test per rule with a minimal snippet the rule must flag, the matching
clean snippet it must not flag, suppression-comment behavior, and the
repo-wide gate: ``src/repro`` lints clean (zero findings).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check import lint, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rules_hit(source: str) -> set[str]:
    return {finding.rule for finding in lint_source(source)}


# --------------------------------------------------------------------- #
# D101: unseeded global RNG
# --------------------------------------------------------------------- #

def test_d101_flags_global_random():
    assert "D101" in _rules_hit("import random\nx = random.random()\n")
    assert "D101" in _rules_hit("import random\nrandom.shuffle(items)\n")


def test_d101_flags_legacy_np_random():
    assert "D101" in _rules_hit("import numpy as np\nx = np.random.rand(3)\n")
    assert "D101" in _rules_hit("import numpy\nx = numpy.random.randint(10)\n")


def test_d101_allows_seeded_generators():
    clean = (
        "import random\nimport numpy as np\n"
        "rng = random.Random(7)\n"
        "gen = np.random.default_rng(7)\n"
        "x = rng.random()\ny = gen.integers(10)\n"
    )
    assert "D101" not in _rules_hit(clean)


# --------------------------------------------------------------------- #
# D102: wall clock
# --------------------------------------------------------------------- #

def test_d102_flags_wall_clock():
    assert "D102" in _rules_hit("import time\nstamp = time.time()\n")
    assert "D102" in _rules_hit(
        "from datetime import datetime\nnow = datetime.now()\n"
    )
    assert "D102" in _rules_hit(
        "import datetime\nnow = datetime.datetime.utcnow()\n"
    )


def test_d102_allows_monotonic_clocks():
    clean = "import time\nstart = time.perf_counter()\nelapsed = time.monotonic()\n"
    assert "D102" not in _rules_hit(clean)


# --------------------------------------------------------------------- #
# D103: id()-derived keys
# --------------------------------------------------------------------- #

def test_d103_flags_id_keys():
    assert "D103" in _rules_hit("memo = {}\nmemo[id(graph)] = value\n")
    assert "D103" in _rules_hit("key = id(adjacency)\n")


def test_d103_suppression_comment():
    suppressed = "key = id(graph)  # repro-check: disable=D103 (weakref-guarded)\n"
    assert "D103" not in _rules_hit(suppressed)


# --------------------------------------------------------------------- #
# D104: canonical JSON in store paths
# --------------------------------------------------------------------- #

def test_d104_flags_unsorted_dumps_in_store_paths():
    source = "import json\nline = json.dumps(row)\n"
    findings = lint_source(source, "src/repro/sweep/store.py")
    assert "D104" in {finding.rule for finding in findings}


def test_d104_requires_literal_true():
    source = "import json\nline = json.dumps(row, sort_keys=flag)\n"
    findings = lint_source(source, "src/repro/sweep/worker.py")
    assert "D104" in {finding.rule for finding in findings}


def test_d104_accepts_sorted_dumps():
    source = "import json\nline = json.dumps(row, sort_keys=True)\n"
    findings = lint_source(source, "src/repro/sweep/store.py")
    assert "D104" not in {finding.rule for finding in findings}


def test_d104_scoped_to_store_row_modules():
    source = "import json\nline = json.dumps(row)\n"
    findings = lint_source(source, "src/repro/cli.py")
    assert "D104" not in {finding.rule for finding in findings}


# --------------------------------------------------------------------- #
# D105: unordered-set iteration
# --------------------------------------------------------------------- #

def test_d105_flags_set_iteration():
    assert "D105" in _rules_hit("for item in {1, 2, 3}:\n    pass\n")
    assert "D105" in _rules_hit("rows = [f(x) for x in set(items)]\n")


def test_d105_allows_sorted_iteration():
    assert "D105" not in _rules_hit("for item in sorted({1, 2, 3}):\n    pass\n")


# --------------------------------------------------------------------- #
# D106: mutable default arguments
# --------------------------------------------------------------------- #

def test_d106_flags_mutable_defaults():
    assert "D106" in _rules_hit("def f(items=[]):\n    return items\n")
    assert "D106" in _rules_hit("def f(*, memo=dict()):\n    return memo\n")


def test_d106_allows_none_default():
    assert "D106" not in _rules_hit("def f(items=None):\n    return items or []\n")


# --------------------------------------------------------------------- #
# Suppressions, selection, and machinery
# --------------------------------------------------------------------- #

def test_disable_all_suppresses_every_rule():
    source = "x = id(graph) or random.random()  # repro-check: disable=all\n"
    assert _rules_hit("import random\n" + source) == set()


def test_disable_list_suppresses_only_named_rules():
    source = (
        "import random\n"
        "x = {id(graph): random.random()}  # repro-check: disable=D103\n"
    )
    assert _rules_hit(source) == {"D101"}


def test_syntax_error_reports_d100():
    findings = lint_source("def broken(:\n")
    assert [finding.rule for finding in findings] == ["D100"]


def test_unknown_rule_selection_raises():
    with pytest.raises(KeyError, match="unknown lint rule"):
        lint_source("x = 1\n", rules=["D999"])


def test_every_rule_has_id_and_contract():
    """The table holds exactly these IDs, and every ``_check_*`` function of
    the module exactly once: a repeated literal key would drop one."""
    assert list(lint._RULES) == ["D101", "D102", "D103", "D104", "D105", "D106"]
    checks = [rule.check for rule in lint._RULES.values()]
    defined = {value for name, value in vars(lint).items() if name.startswith("_check_")}
    assert len(set(checks)) == len(checks) and set(checks) == defined
    for rule in lint._RULES.values():
        assert rule.contract
        assert rule.check.__doc__ and rule.check.__doc__.strip()


def test_findings_sorted_and_addressable(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import random\nb = random.random()\na = id(b)\n", encoding="utf-8"
    )
    findings = lint_paths([tmp_path], root=tmp_path)
    assert [finding.line for finding in findings] == [2, 3]
    assert findings[0].path == "mod.py"
    assert (findings[0].rule, findings[0].line) == ("D101", 2)


# --------------------------------------------------------------------- #
# The repo-wide gate
# --------------------------------------------------------------------- #

def test_src_repro_lints_clean():
    """The whole tree lints clean: any finding fails the gate."""
    findings = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert findings == [], [finding.describe() for finding in findings]
