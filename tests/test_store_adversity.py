"""Adversity tests for the self-healing result store and the repair tools."""

from __future__ import annotations

import json

import pytest

from repro.faults import ENV_VAR, FaultPlan, FaultSpec, clear_plan, install_plan
from repro.sweep import (
    ResultStore,
    ScenarioMatrix,
    StoreCorruptionWarning,
    compact_store,
    repair_store,
    run_sweep,
    verify_store,
)
from repro.sweep.store import armored_line, canonical_row, row_checksum


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    yield
    clear_plan()


def _write_rows(path, rows):
    path.write_text("".join(armored_line(row) + "\n" for row in rows))


class TestChecksums:
    def test_armor_is_stripped_at_load(self, tmp_path):
        """Logical rows never carry the checksum field."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "value": 1})
        assert '"crc":' in path.read_text()
        reloaded = ResultStore(path)
        assert reloaded.get("a") == {"key": "a", "value": 1}

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        """A bit-flipped row fails its CRC and is quarantined, not served."""
        path = tmp_path / "s.jsonl"
        good = {"key": "a", "value": 1}
        tampered = canonical_row({"key": "a", "value": 2, "crc": row_checksum(good)})
        path.write_text(tampered + "\n" + armored_line({"key": "b"}) + "\n")
        with pytest.warns(StoreCorruptionWarning, match="quarantined 1"):
            store = ResultStore(path)
        assert store.keys() == {"b"}
        assert "checksum mismatch" in store.quarantined[0].error

    def test_line_without_its_checksum_is_quarantined(self, tmp_path):
        """A line with no checksum, or whose ``crc`` field name is damaged,
        is corrupt: a tampered row must not load as an unchecked one."""
        path = tmp_path / "s.jsonl"
        good = {"key": "a", "value": 1}
        unarmored = canonical_row({"key": "b", "value": 2})
        renamed = armored_line({"key": "c", "value": 3}).replace('"crc":', '"crd":')
        path.write_text(
            armored_line(good) + "\n" + unarmored + "\n" + renamed + "\n"
        )
        with pytest.warns(StoreCorruptionWarning, match="quarantined 2"):
            store = ResultStore(path)
        assert store.keys() == {"a"}
        assert [line.number for line in store.quarantined] == [2, 3]
        assert all("checksum" in line.error for line in store.quarantined)
        report = verify_store(path)
        assert not report.clean and [number for number, _ in report.corrupt] == [2, 3]


class TestTornWrites:
    def test_torn_tail_is_truncated_and_reappendable(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _write_rows(path, [{"key": "a"}])
        whole = armored_line({"key": "b"})
        with path.open("a") as handle:
            handle.write(whole[: len(whole) // 2])  # killed mid-write
        store = ResultStore(path)
        assert store.dropped_partial_row and store.keys() == {"a"}
        store.append({"key": "b", "value": 2})
        reloaded = ResultStore(path)
        assert not reloaded.dropped_partial_row
        assert reloaded.get("b") == {"key": "b", "value": 2}

    def test_injected_torn_write_fault(self, tmp_path):
        """A torn_write fault tears exactly one append; the store neither
        indexes the torn row nor serves it, and the retry lands it whole."""
        path = tmp_path / "s.jsonl"
        install_plan(
            FaultPlan(specs=(FaultSpec(site="store.append", kind="torn_write",
                                       match={"key": "victim"}, times=1),))
        )
        store = ResultStore(path)
        store.append({"key": "other"})
        store.append({"key": "victim", "value": 9})
        assert store.get("victim") is None  # torn write did not land
        raw = path.read_text()
        assert not raw.endswith("\n")  # torn prefix dangles
        store.append({"key": "victim", "value": 9})  # attempt 2: fault quiet
        # The dangling prefix plus the retried append is exactly the torn-
        # tail adversity: the loader glues them into one damaged line,
        # quarantines it, and the store heals on the next append.
        with pytest.warns(StoreCorruptionWarning):
            reloaded = ResultStore(path)
        assert reloaded.get("other") == {"key": "other"}
        repair_store(path)
        clear_plan()  # the chaos is over; heal in a fresh store instance
        healed = ResultStore(path)
        healed.append({"key": "victim", "value": 9})
        assert ResultStore(path).get("victim") == {"key": "victim", "value": 9}


class TestRepair:
    def test_repair_round_trip_preserves_healthy_bytes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        healthy = [armored_line({"key": "a"}), armored_line({"key": "b"})]
        path.write_text(healthy[0] + "\n" + "garbage\n" + healthy[1] + "\n" + '{"torn')
        report = repair_store(path)
        assert not report.clean  # report describes what it found
        assert report.removed_lines == 2  # the garbage line and the torn tail
        assert path.read_text() == healthy[0] + "\n" + healthy[1] + "\n"
        assert (tmp_path / "s.jsonl.quarantine").read_text() == "garbage\n"
        assert verify_store(path).clean
        assert repair_store(path).clean  # idempotent: nothing left to do

    def test_compact_collapses_failed_then_healed_pairs(self, tmp_path):
        path = tmp_path / "s.jsonl"
        failed = {"key": "a", "status": "failed", "attempts": 2}
        healed = {"key": "a", "value": 1}
        _write_rows(path, [failed, healed, {"key": "b"}])
        assert verify_store(path).duplicate_keys == 1
        report = compact_store(path)
        assert report.rows == 2 and report.removed_lines == 1
        lines = path.read_text().splitlines()
        assert lines == [armored_line(healed), armored_line({"key": "b"})]


class TestChaosResume:
    def test_resume_after_torn_sweep_is_byte_identical(self, tmp_path):
        """Kill a sweep mid-row (simulated by truncating the store), resume
        fault-free: the final store matches an uninterrupted run's bytes."""
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], scale=0.1, seed=0
        )
        clean = tmp_path / "clean.jsonl"
        run_sweep(matrix, store=ResultStore(clean), jobs=1)

        torn = tmp_path / "torn.jsonl"
        run_sweep(matrix, store=ResultStore(torn), jobs=1)
        raw = torn.read_bytes()
        torn.write_bytes(raw[: len(raw) - len(raw.splitlines(True)[-1]) // 2 - 1])
        store = ResultStore(torn)
        assert store.dropped_partial_row
        summary = run_sweep(matrix, store=store, jobs=1)
        assert summary.executed == 1  # only the torn cell re-ran
        assert sorted(torn.read_text().splitlines()) == sorted(
            clean.read_text().splitlines()
        )

    def test_quarantined_cells_reexecute_and_store_repairs_clean(self, tmp_path):
        """Interior corruption -> quarantine -> re-execute -> repair: the
        store ends exactly one healthy row per cell."""
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], scale=0.1, seed=0
        )
        path = tmp_path / "store.jsonl"
        run_sweep(matrix, store=ResultStore(path), jobs=1)
        lines = path.read_text().splitlines()
        # Corrupt the first row in place (flip bytes mid-line).
        lines[0] = lines[0][:-4] + "!!!!"
        path.write_text("\n".join(lines) + "\n")

        with pytest.warns(StoreCorruptionWarning):
            store = ResultStore(path)
        summary = run_sweep(matrix, store=store, jobs=1)
        assert summary.executed == 1 and summary.failed == 0
        repair_store(path)
        report = verify_store(path)
        assert report.clean and report.rows == len(matrix.cells())
        for row in ResultStore(path).rows():
            assert row["metrics"] is not None

    def test_sweep_records_quarantined_and_healed_rows(self, tmp_path):
        """A sweep over a store holding one corrupt interior line and one
        failed row counts the quarantine and the heal in its registry."""
        from repro.obs import MetricsRegistry
        from repro.sweep import failed_row

        matrix = ScenarioMatrix.build(["cora"], ["gcn"], backends=["gnnie"], scale=0.1)
        [cell] = matrix.cells()
        path = tmp_path / "s.jsonl"
        path.write_text(
            "garbage\n" + armored_line(failed_row(cell, RuntimeError("boom"), 2)) + "\n"
        )
        with pytest.warns(StoreCorruptionWarning):
            store = ResultStore(path)
        metrics = MetricsRegistry()
        summary = run_sweep(matrix, store=store, jobs=1, metrics=metrics)
        assert summary.executed == 1 and summary.failed == 0
        assert metrics.counter("store.rows.quarantined").value == 1
        assert metrics.counter("store.rows.healed").value == 1

    def test_verify_reports_failed_rows(self, tmp_path):
        from repro.sweep import failed_row

        matrix = ScenarioMatrix.build(["cora"], ["gcn"], backends=["gnnie"], scale=0.1)
        cell = matrix.cells()[0]
        path = tmp_path / "s.jsonl"
        _write_rows(path, [failed_row(cell, RuntimeError("boom"), 3)])
        report = verify_store(path)
        assert report.rows == 1 and report.failed_rows == 1
        data = json.loads(path.read_text().splitlines()[0])
        assert data["status"] == "failed" and data["attempts"] == 3
