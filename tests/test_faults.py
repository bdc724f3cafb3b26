"""Tests for deterministic fault injection and the supervised sweep fleet."""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_plan,
    install_plan,
    trip,
)
from repro.sweep import ResultStore, RetryPolicy, ScenarioMatrix, SweepError, run_sweep


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """Every test starts and ends with no fault plan installed."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    yield
    clear_plan()


@pytest.fixture(scope="module")
def tiny_matrix() -> ScenarioMatrix:
    return ScenarioMatrix.build(
        ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], scale=0.1, seed=0
    )


def _lines(path) -> list[str]:
    return sorted(path.read_text().splitlines())


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="cell", kind="raise", match={"dataset": "cora"}, times=2),
                FaultSpec(site="store.append", kind="torn_write", match={"key": "ab"}),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_json('{"seed": 1, "oops": []}')
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultPlan.from_json('{"specs": [{"site": "cell", "typo": 1}]}')

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nowhere")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError, match="torn_write"):
            FaultSpec(site="cell", kind="torn_write")
        with pytest.raises(ValueError, match="match keys"):
            FaultSpec(site="store.append", match={"dataset": "cora"})
        with pytest.raises(ValueError, match="times"):
            FaultSpec(times=0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(probability=0.0)

    def test_times_gate_then_quiet(self):
        plan = FaultPlan(specs=(FaultSpec(times=2),))
        assert plan.find("cell", attempt=1, key="k") is not None
        assert plan.find("cell", attempt=2, key="k") is not None
        assert plan.find("cell", attempt=3, key="k") is None
        forever = FaultPlan(specs=(FaultSpec(times=-1),))
        assert forever.find("cell", attempt=99, key="k") is not None

    def test_probability_is_seeded_not_random(self):
        spec = FaultSpec(probability=0.5, times=-1)
        decisions = [
            spec.fires(attempt=n, seed=7, index=0, key="cell-key") for n in range(1, 33)
        ]
        # Identical inputs -> identical decisions, and the hash actually
        # varies across attempts (both outcomes occur at p=0.5 over 32).
        assert decisions == [
            spec.fires(attempt=n, seed=7, index=0, key="cell-key") for n in range(1, 33)
        ]
        assert True in decisions and False in decisions
        other_seed = [
            spec.fires(attempt=n, seed=8, index=0, key="cell-key") for n in range(1, 33)
        ]
        assert decisions != other_seed

    def test_match_constrains_site_attributes(self):
        plan = FaultPlan(
            specs=(FaultSpec(match={"backend": "gnnie", "family": "gat"}, times=-1),)
        )
        assert plan.find("cell", attempt=1, backend="gnnie", family="gat") is not None
        assert plan.find("cell", attempt=1, backend="gnnie", family="gcn") is None
        assert plan.find("store.append", attempt=1, key="x") is None


class TestActivation:
    def test_no_plan_is_a_noop(self):
        assert active_plan() is None
        trip("cell", attempt=1, key="anything")  # must not raise

    def test_inline_json_install_and_trip(self):
        install_plan(FaultPlan(specs=(FaultSpec(match={"key": "boom"}, times=-1),)))
        assert active_plan() is not None
        trip("cell", attempt=1, key="other")  # non-matching target passes
        with pytest.raises(InjectedFault, match="injected fault at cell"):
            trip("cell", attempt=1, key="boom")
        clear_plan()
        assert active_plan() is None

    def test_plan_file_install(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan = FaultPlan(specs=(FaultSpec(match={"key": "boom"}, times=-1),), seed=3)
        plan_path.write_text(plan.to_json())
        install_plan(plan_path)
        assert active_plan() == plan

    def test_cache_refreshes_when_plan_changes(self):
        install_plan(FaultPlan(specs=(FaultSpec(match={"key": "a"}, times=-1),)))
        assert active_plan().find("cell", attempt=1, key="a") is not None
        install_plan(FaultPlan(specs=(FaultSpec(match={"key": "b"}, times=-1),)))
        assert active_plan().find("cell", attempt=1, key="a") is None


class TestSupervisedSweep:
    def test_transient_fault_retried_to_identical_success(self, tiny_matrix, tmp_path):
        clean = ResultStore(tmp_path / "clean.jsonl")
        run_sweep(tiny_matrix, store=clean, jobs=1)

        key = tiny_matrix.cells()[0].key()
        install_plan(
            FaultPlan(specs=(FaultSpec(match={"key": key}, times=1),), seed=1)
        )
        chaotic = ResultStore(tmp_path / "chaos.jsonl")
        summary = run_sweep(tiny_matrix, store=chaotic, jobs=1)
        assert summary.failed == 0 and summary.retries == 1
        assert _lines(clean.path) == _lines(chaotic.path)

    def test_chaos_replay_is_byte_identical(self, tiny_matrix, tmp_path):
        """Same plan, same matrix -> same retry count and same store bytes."""
        install_plan(
            FaultPlan(
                specs=(FaultSpec(match={"dataset": "cora"}, probability=0.4, times=-1),),
                seed=11,
            )
        )
        first = ResultStore(tmp_path / "one.jsonl")
        second = ResultStore(tmp_path / "two.jsonl")
        a = run_sweep(tiny_matrix, store=first, jobs=1)
        b = run_sweep(tiny_matrix, store=second, jobs=1)
        assert (a.failed, a.retries) == (b.failed, b.retries)
        assert _lines(first.path) == _lines(second.path)

    def test_poisoned_config_is_isolated_by_degradation(self, tmp_path):
        """One poisoned cell in a batch group fails alone; its group mates
        land healthy rows when the group degrades to single cells."""
        from repro.hw import design_preset

        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie"],
            configs=[design_preset(name) for name in "ABC"], scale=0.1, seed=0,
        )
        poisoned = matrix.cells()[1]
        install_plan(
            FaultPlan(
                specs=(FaultSpec(match={"config_name": poisoned.config.name}, times=-1),)
            )
        )
        summary = run_sweep(matrix, store=ResultStore(tmp_path / "p.jsonl"), jobs=1)
        assert summary.total == 3 and summary.failed == 1
        by_key = {row["key"]: row for row in summary.rows}
        assert by_key[poisoned.key()]["status"] == "failed"
        healthy = [row for row in summary.rows if row.get("status") != "failed"]
        assert len(healthy) == 2
        assert all(row["metrics"] is not None for row in healthy)

    def test_degraded_cells_land_the_rows_of_a_clean_sweep(self, tmp_path):
        """A degraded group runs each cell as a batch of one; the healthy
        cells' rows are byte-identical to those of a fault-free sweep."""
        from repro.hw import design_preset
        from repro.obs import MetricsRegistry
        from repro.sweep.store import canonical_row

        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie"],
            configs=[design_preset(name) for name in "ABC"], scale=0.1, seed=0,
        )
        clean = run_sweep(matrix, store=ResultStore(tmp_path / "c.jsonl"), jobs=1)
        clean_rows = {row["key"]: canonical_row(row) for row in clean.rows}

        poisoned = matrix.cells()[2]
        install_plan(
            FaultPlan(
                specs=(FaultSpec(match={"config_name": poisoned.config.name}, times=-1),)
            )
        )
        metrics = MetricsRegistry()
        summary = run_sweep(
            matrix, store=ResultStore(tmp_path / "d.jsonl"), jobs=1, metrics=metrics
        )
        assert metrics.counter("sweep.groups.degraded").value == 1
        healthy = {
            row["key"]: canonical_row(row)
            for row in summary.rows
            if row.get("status") != "failed"
        }
        assert set(healthy) == {cell.key() for cell in matrix.cells()[:2]}
        assert healthy == {key: clean_rows[key] for key in healthy}

    def test_strict_policy_reports_every_failure(self, tmp_path):
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie"], scale=0.1, seed=0
        )
        install_plan(FaultPlan(specs=(FaultSpec(match={"backend": "gnnie"}, times=-1),)))
        strict = RetryPolicy(max_attempts=1, failed_rows=False)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(matrix, store=ResultStore(tmp_path / "s.jsonl"), jobs=1, retry=strict)
        failed_keys = {key for f in excinfo.value.failures for key in f["keys"]}
        assert failed_keys == {cell.key() for cell in matrix.cells()}
        assert excinfo.value.rows_landed == 0
        assert all(f["error_type"] == "InjectedFault" for f in excinfo.value.failures)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0)

    def test_backoff_delay_is_deterministic_and_bounded(self):
        from repro.sweep.runner import BACKOFF_MAX_SECONDS, BACKOFF_SECONDS, backoff_delay

        attempts = (1, 2, 3, 9)
        delays = [backoff_delay("key", attempt) for attempt in attempts]
        assert delays == [backoff_delay("key", attempt) for attempt in attempts]
        # The base doubles per attempt up to the cap (attempt 9 is capped);
        # jitter scales it into [0.5, 1.0) of itself.
        for attempt, delay in zip(attempts, delays):
            base = min(BACKOFF_SECONDS * 2 ** (attempt - 1), BACKOFF_MAX_SECONDS)
            assert 0.5 * base <= delay < base
        assert BACKOFF_SECONDS * 2**8 > BACKOFF_MAX_SECONDS
        assert backoff_delay("other-key", 1) != delays[0]


class TestSupervisedPool:
    """Crash and hang faults need real worker processes (jobs >= 2)."""

    def test_worker_crash_rebuilds_pool_and_completes(self, tiny_matrix, tmp_path):
        clean = ResultStore(tmp_path / "clean.jsonl")
        run_sweep(tiny_matrix, store=clean, jobs=1)

        key = tiny_matrix.cells()[0].key()
        install_plan(
            FaultPlan(specs=(FaultSpec(match={"key": key}, kind="crash", times=1),))
        )
        store = ResultStore(tmp_path / "crash.jsonl")
        summary = run_sweep(tiny_matrix, store=store, jobs=2)
        assert summary.failed == 0
        assert summary.pool_rebuilds >= 1
        assert _lines(clean.path) == _lines(store.path)

    def test_hung_worker_times_out_and_completes(self, tiny_matrix, tmp_path):
        clean = ResultStore(tmp_path / "clean.jsonl")
        run_sweep(tiny_matrix, store=clean, jobs=1)

        key = tiny_matrix.cells()[0].key()
        install_plan(
            FaultPlan(
                specs=(
                    FaultSpec(match={"key": key}, kind="hang", times=1, hang_seconds=30),
                )
            )
        )
        store = ResultStore(tmp_path / "hang.jsonl")
        summary = run_sweep(
            tiny_matrix, store=store, jobs=2, retry=RetryPolicy(timeout_seconds=2.0)
        )
        assert summary.failed == 0
        assert summary.timeouts == 1 and summary.pool_rebuilds >= 1
        assert _lines(clean.path) == _lines(store.path)


class TestFaultsCLI:
    def test_sweep_faults_flag_lands_failed_rows(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sweep.matrix import ScenarioMatrix as SM

        cell = SM.build(["cora"], ["gcn"], backends=["gnnie"], scale=0.1).cells()[0]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            FaultPlan(
                specs=(FaultSpec(match={"key": cell.key()}, times=-1),)
            ).to_json()
        )
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie",
            "--scale", "0.1",
            "--store", str(tmp_path / "s.jsonl"),
            "--faults", str(plan_path),
            "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] == 1
        assert report["rows"][0]["error"]["type"] == "InjectedFault"
        # A fault-free re-run heals exactly the failed cell.
        clear_plan()
        faults = argv.index("--faults")
        assert main(argv[:faults] + argv[faults + 2 :]) == 0
        healed = json.loads(capsys.readouterr().out)
        assert (healed["executed"], healed["skipped"], healed["failed"]) == (1, 0, 0)
        assert healed["rows"][0]["metrics"] is not None

    def test_sweep_strict_flag_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan(specs=(FaultSpec(match={"dataset": "cora"}, times=-1),))
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie",
            "--scale", "0.1",
            "--store", str(tmp_path / "s.jsonl"),
            "--faults", plan.to_json(),
            "--strict",
            "--max-attempts", "1",
        ]
        assert main(argv) == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_sweep_rejects_malformed_plan(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep",
            "--datasets", "cora",
            "--store", str(tmp_path / "s.jsonl"),
            "--faults", '{"oops": 1}',
        ]
        assert main(argv) == 2
        assert "unknown FaultPlan fields" in capsys.readouterr().err
