"""Tests for the closed-loop autotuner (`repro.tune`) and its reporting."""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis import beta_rows, tune_report, tune_table_rows
from repro.cli import main
from repro.hw import AcceleratorConfig, design_preset
from repro.sim import admissible_mac_allocation
from repro.sim.design_space import DesignPoint
from repro.sweep import ResultStore
from repro.tune import (
    ParetoMutationProposer,
    TuneSpec,
    candidate_name,
    run_tune,
)


def _survivor(config: AcceleratorConfig, cycles: int = 100) -> DesignPoint:
    return DesignPoint(
        name=config.name,
        config=config,
        total_macs=config.total_macs,
        area_mm2=15.0,
        cycles=cycles,
        latency_seconds=cycles / config.frequency_hz,
        energy_joules=1e-6,
    )


@pytest.fixture(scope="module")
def spec() -> TuneSpec:
    return TuneSpec(
        dataset="cora", family="gcn", scale=0.1, seed=0, generations=3, population=4
    )


@pytest.fixture(scope="module")
def tuned(spec, tmp_path_factory):
    store_path = tmp_path_factory.mktemp("tune") / "store.jsonl"
    result = run_tune(spec, store=ResultStore(store_path))
    return result, store_path


class TestProposer:
    def test_candidates_admissible_and_content_named(self):
        proposer = ParetoMutationProposer(mac_budget=1280)
        survivors = [_survivor(design_preset("E"))]
        candidates = proposer.propose(survivors, rng=random.Random(0), count=32)
        assert candidates
        for config in candidates:
            assert admissible_mac_allocation(
                config.macs_per_group,
                group_sizes=config.rows_per_group,
                num_cols=config.num_cols,
                mac_budget=1280,
            )
            assert config != survivors[0].config
            assert config.name == candidate_name(config)
            if config.input_buffer_bytes is not None:
                assert config.input_buffer_bytes > 0

    def test_deterministic_under_one_seed(self):
        proposer = ParetoMutationProposer()
        survivors = [_survivor(design_preset("E")), _survivor(design_preset("A"))]
        first = proposer.propose(survivors, rng=random.Random("g1"), count=12)
        second = proposer.propose(survivors, rng=random.Random("g1"), count=12)
        assert first == second

    def test_empty_survivors_propose_nothing(self):
        assert ParetoMutationProposer().propose([], rng=random.Random(0), count=5) == []

    def test_candidate_name_is_a_pure_content_function(self):
        config = design_preset("E")
        assert candidate_name(config) == candidate_name(design_preset("E"))
        from dataclasses import replace

        assert candidate_name(config) != candidate_name(replace(config, gamma=7))
        hierarchy = replace(config, miss_path_mechanisms=("victim", "stream"))
        assert "MPvictim+stream" in candidate_name(hierarchy)


class TestRunTune:
    def test_generation_zero_is_baseline_plus_seeds(self, tuned):
        result, _ = tuned
        assert result.generations[0].cells == 2  # Design A + Design E

    def test_best_beta_at_least_the_paper_design_e(self, tuned, spec):
        """The tuner never loses the paper's hand-picked design point."""
        result, store_path = tuned
        betas = beta_rows(list(ResultStore(store_path).rows()), baseline=spec.baseline)
        design_e = next(e for e in betas if e["name"] == "Design E (GNNIE)")
        assert result.best is not None
        assert result.best["beta"] >= design_e["beta"]

    def test_every_generation_proposes_fresh_cells(self, tuned, spec):
        result, store_path = tuned
        # No cell is ever proposed twice: unique keys == evaluated count.
        assert len(ResultStore(store_path)) == result.evaluated_cells
        assert result.evaluated_cells <= 2 + (spec.generations - 1) * spec.population

    def test_resume_executes_zero_cells_and_matches(self, tuned, spec):
        result, store_path = tuned
        resumed = run_tune(spec, store=ResultStore(store_path))
        assert resumed.executed_cells == 0
        assert resumed.evaluated_cells == result.evaluated_cells
        assert resumed.best == result.best
        assert resumed.pareto == result.pareto
        assert [g.as_dict() for g in resumed.generations] == [
            {**g.as_dict(), "executed": 0, "resumed": g.cells} for g in result.generations
        ]

    def test_killed_run_resumes_without_resimulating_done_cells(self, tuned, spec, tmp_path):
        """Kill-and-resume: only the genuinely missing cells execute."""
        result, store_path = tuned
        partial = tmp_path / "partial.jsonl"
        lines = store_path.read_text().splitlines(keepends=True)
        partial.write_text("".join(lines[:3]))
        resumed = run_tune(spec, store=ResultStore(partial))
        assert resumed.executed_cells == result.evaluated_cells - 3
        assert resumed.best == result.best

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TuneSpec(dataset="cora", generations=0)
        with pytest.raises(ValueError):
            TuneSpec(dataset="cora", population=0)

    def test_spec_normalizes_axis_case(self):
        """A mixed-case spec must hash to the lowercase spec's cells, so
        shared stores and report filters agree."""
        spec = TuneSpec(dataset="Cora", family="GCN", backend="GNNIE")
        assert (spec.dataset, spec.family, spec.backend) == ("cora", "gcn", "gnnie")
        assert spec == TuneSpec(dataset="cora", family="gcn")

    def test_spec_rejects_config_insensitive_backends(self):
        """Baseline platforms ignore AcceleratorConfig — nothing to tune."""
        with pytest.raises(ValueError, match="gnnie"):
            TuneSpec(dataset="cora", backend="pyg-cpu")


class TestTuneReport:
    def test_report_over_the_finished_store(self, tuned, spec):
        result, store_path = tuned
        report = tune_report(
            store_path, dataset=spec.dataset, family=spec.family, baseline=spec.baseline
        )
        assert report["cells"] == result.evaluated_cells
        assert report["best"]["beta"] == pytest.approx(result.best["beta"])
        assert report["pareto"]
        # β ranking is best-first with null-β entries (the baseline) last.
        betas = [entry["beta"] for entry in report["beta"]]
        numeric = [beta for beta in betas if beta is not None]
        assert numeric == sorted(numeric, reverse=True)
        assert betas.index(None) == len(numeric) if None in betas else True
        # A GNNIE-only store has no baseline platforms to geomean.
        assert report["geomeans"] == {}

    def test_table_rows_match_report(self, tuned, spec):
        _, store_path = tuned
        report = tune_report(store_path, baseline=spec.baseline)
        rows = tune_table_rows(report, limit=3)
        assert len(rows) == min(3, len(report["beta"]))
        assert set(rows[0]) == {"design", "total_macs", "cycles", "area_mm2", "beta"}

    def test_unknown_baseline_raises_in_beta_rows(self, tuned):
        _, store_path = tuned
        with pytest.raises(ValueError, match="baseline"):
            beta_rows(list(ResultStore(store_path).rows()), baseline="Design Z")


class TestTuneCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["tune"])
        assert args.dataset == "cora" and args.model == "gcn"
        assert args.generations == 4 and args.population == 6
        assert args.mac_budget == 1280 and args.store == "tune.jsonl"
        assert args.jobs == 1 and not args.no_resume

    def test_tune_command_then_resume(self, tmp_path, capsys):
        argv = [
            "tune",
            "--dataset", "cora",
            "--model", "gcn",
            "--scale", "0.1",
            "--generations", "2",
            "--population", "2",
            "--store", str(tmp_path / "cli.jsonl"),
            "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["executed_cells"] == first["evaluated_cells"] > 0
        assert first["best"]["beta"] is not None
        assert len(first["generations"]) == 2
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed_cells"] == 0
        assert second["evaluated_cells"] == first["evaluated_cells"]
        assert second["best"] == first["best"]

    def test_tune_command_table_output(self, tmp_path, capsys):
        argv = [
            "tune",
            "--dataset", "cora",
            "--scale", "0.1",
            "--generations", "2",
            "--population", "2",
            "--store", str(tmp_path / "t.jsonl"),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Autotuned designs" in output
        assert "best design:" in output

    def test_tune_rejects_bad_arguments(self, tmp_path, capsys):
        store = str(tmp_path / "x.jsonl")
        assert main(["tune", "--jobs", "0", "--store", store]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["tune", "--generations", "0", "--store", store]) == 2
        assert "generations" in capsys.readouterr().err

    def test_tune_reports_old_format_store_cleanly(self, tmp_path, capsys):
        store = tmp_path / "old.jsonl"
        store.write_text('{"key":"a","config":{}}\n')
        argv = ["tune", "--dataset", "cora", "--scale", "0.1", "--store", str(store)]
        assert main(argv) == 2
        assert "format" in capsys.readouterr().err
