"""The `repro check` CLI and `repro plan --check` surface.

`repro check` is the CI gate: exit 0 on a clean repo, exit 1 the moment
the linter reports any finding or a lowered plan stops verifying.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.datasets import dataset_names
from repro.models import MODEL_FAMILIES

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCheckCommand:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "repro check: ok" in out
        assert "25 family x dataset pair(s) verified" in out

    def test_json_report_shape(self, capsys):
        assert main(["check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["lint"] == {"findings": []}
        assert len(report["plans"]) == 25
        assert all(row["ok"] for row in report["plans"])

    def test_lint_only_skips_plans(self, capsys):
        assert main(["check", "--lint", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plans"] is None
        assert report["lint"] is not None

    def test_plans_only_skips_lint(self, capsys):
        assert main(["check", "--plans", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lint"] is None
        assert len(report["plans"]) == 25

    def test_plan_rows_list_families_sorted(self, capsys):
        """The report's row order is part of its bytes: families sorted,
        each over the datasets in registry order."""
        assert main(["check", "--plans", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["plans"]
        assert [(row["family"], row["dataset"]) for row in rows[:5]] == [
            ("diffpool", dataset) for dataset in dataset_names()
        ]
        assert [row["family"] for row in rows[::5]] == sorted(MODEL_FAMILIES)

    def test_new_finding_fails(self, tmp_path, capsys):
        offender = tmp_path / "offender.py"
        offender.write_text("key = id(graph)\n", encoding="utf-8")
        argv = ["check", "--lint", "--paths", str(offender)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "D103" in out and "lint: 1 finding(s)" in out

        assert main([*argv, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert [finding["rule"] for finding in report["lint"]["findings"]] == ["D103"]

        # The per-line suppression comment is the one way to silence it.
        offender.write_text("key = id(graph)  # repro-check: disable=D103\n", encoding="utf-8")
        assert main(argv) == 0


class TestPlanCheckFlag:
    def test_plan_check_passes_for_builtin_families(self, capsys):
        argv = ["plan", "--dataset", "cora", "--model", "gat", "--scale", "0.1", "--check"]
        assert main(argv) == 0
        assert "plan verified clean" in capsys.readouterr().err

    def test_plan_check_covers_chip_plans(self, capsys):
        argv = [
            "plan",
            "--dataset",
            "cora",
            "--model",
            "gcn",
            "--scale",
            "0.1",
            "--chips",
            "4",
            "--check",
        ]
        assert main(argv) == 0
        assert "+4 chip plans" in capsys.readouterr().err
