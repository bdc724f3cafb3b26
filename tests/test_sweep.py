"""Tests for the scenario-sweep subsystem (matrix, store, worker, runner, CLI)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import backend_geomeans, design_points_from_rows, pareto_rows, speedup_rows
from repro.cli import main
from repro.hw import AcceleratorConfig, design_preset
from repro.sim import GNNIESimulator, sweep_designs
from repro.sweep import (
    ALL_BACKENDS,
    DatasetCase,
    ResultStore,
    RetryPolicy,
    ScenarioMatrix,
    StoreCorruptionWarning,
    SweepCell,
    SweepError,
    config_from_dict,
    config_to_dict,
    derive_seed,
    full_matrix,
    run_batch_timed,
    run_sweep,
)
from repro.sweep.store import canonical_row


@pytest.fixture(scope="module")
def small_matrix() -> ScenarioMatrix:
    return ScenarioMatrix.build(
        ["cora"], ["gcn", "gat"], backends=["gnnie", "awb-gcn"], scale=0.1, seed=0
    )


@pytest.fixture(scope="module")
def small_summary(small_matrix):
    return run_sweep(small_matrix, jobs=1)


class TestMatrix:
    def test_axis_major_expansion_order(self):
        matrix = ScenarioMatrix.build(
            ["cora", "citeseer"], ["gcn", "gat"], backends=["gnnie", "engn"]
        )
        cells = matrix.cells()
        assert len(cells) == len(matrix) == 8
        assert [(c.dataset, c.family, c.backend) for c in cells[:4]] == [
            ("cora", "gcn", "gnnie"),
            ("cora", "gcn", "engn"),
            ("cora", "gat", "gnnie"),
            ("cora", "gat", "engn"),
        ]
        assert all(c.dataset == "citeseer" for c in cells[4:])

    def test_derived_seeds_deterministic_and_shared_per_dataset(self):
        matrix = full_matrix(seed=7)
        cells = matrix.cells()
        by_dataset = {}
        for cell in cells:
            by_dataset.setdefault(cell.dataset, set()).add(cell.seed)
        # Every cell of one dataset shares one seed (same synthetic graph).
        assert all(len(seeds) == 1 for seeds in by_dataset.values())
        assert by_dataset["cora"] == {derive_seed(7, "cora")}
        # Different base seed, different derived seeds.
        assert derive_seed(7, "cora") != derive_seed(8, "cora")
        assert derive_seed(7, "cora") != derive_seed(7, "citeseer")

    def test_explicit_dataset_case_seed_wins(self):
        matrix = ScenarioMatrix(
            datasets=(DatasetCase("cora", scale=0.1, seed=42),),
            families=("gcn",),
        )
        assert matrix.cells()[0].seed == 42

    def test_cell_key_content_hash(self):
        cell = SweepCell("cora", 0.1, 1, "gcn", "gnnie", AcceleratorConfig())
        twin = SweepCell("cora", 0.1, 1, "gcn", "gnnie", AcceleratorConfig())
        assert cell.key() == twin.key()
        other_config = SweepCell("cora", 0.1, 1, "gcn", "gnnie", design_preset("A"))
        other_seed = SweepCell("cora", 0.1, 2, "gcn", "gnnie", AcceleratorConfig())
        assert len({cell.key(), other_config.key(), other_seed.key()}) == 3

    def test_config_round_trip_restores_tuples(self):
        config = design_preset("E").with_miss_path("victim", "stream")
        restored = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert restored == config
        assert isinstance(restored.macs_per_group, tuple)
        assert isinstance(restored.miss_path_mechanisms, tuple)

    def test_config_round_trip_preserves_auto_sentinel(self):
        auto = AcceleratorConfig()
        data = json.loads(json.dumps(config_to_dict(auto)))
        assert data["input_buffer_bytes"] is None  # JSON null, not 524288
        assert config_from_dict(data) == auto
        explicit = replace(auto, input_buffer_bytes=256 * 1024)
        assert (
            config_from_dict(json.loads(json.dumps(config_to_dict(explicit))))
            == explicit
        )

    def test_auto_sentinel_and_explicit_default_are_distinct_cells(self):
        """Documented consequence of the sentinel: cell keys changed.

        The auto default serializes as ``null`` where it used to be 524288,
        so a default-config cell no longer shares a key with an explicit
        512 KB cell — stores written before the change cannot be resumed
        (see ``test_resuming_pre_sentinel_store_fails_clearly``).
        """
        auto = SweepCell("cora", 0.1, 1, "gcn", "gnnie", AcceleratorConfig())
        explicit = SweepCell(
            "cora", 0.1, 1, "gcn", "gnnie",
            replace(AcceleratorConfig(), input_buffer_bytes=512 * 1024),
        )
        assert auto.key() != explicit.key()

    def test_full_matrix_shape(self):
        matrix = full_matrix()
        assert len(matrix) == 5 * 5 * len(ALL_BACKENDS)

    def test_all_backends_tracks_the_live_registry(self):
        import repro.sweep
        from repro.plan import executor_names

        assert repro.sweep.ALL_BACKENDS == executor_names()
        assert set(ALL_BACKENDS) == {
            "gnnie", "pyg-cpu", "pyg-gpu", "hygcn", "awb-gcn", "engn"
        }

    def test_configs_cross_only_config_sensitive_backends(self):
        configs = (design_preset("A"), design_preset("E"))
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], configs=configs
        )
        cells = matrix.cells()
        # GNNIE sweeps both designs; the fixed-silicon baseline runs once.
        assert len(matrix) == len(cells) == 3
        assert [(c.backend, c.config.name) for c in cells] == [
            ("gnnie", "Design A"),
            ("gnnie", "Design E (GNNIE)"),
            ("pyg-cpu", "Design A"),
        ]
        crossed = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["gnnie", "pyg-cpu"], configs=configs,
            config_backends=None,
        )
        assert len(crossed) == len(crossed.cells()) == 4
        # config_backends is case-normalized like the backend axis.
        mixed = ScenarioMatrix.build(
            ["cora"], ["gcn"], backends=["GNNIE"], configs=configs,
            config_backends=["GNNIE"],
        )
        assert len(mixed) == 2


class TestResultStore:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "value": 1})
        store.append({"key": "b", "value": 2})
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert "a" in reloaded and reloaded.get("b") == {"key": "b", "value": 2}

    def test_duplicate_key_not_rewritten(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "value": 1})
        store.append({"key": "a", "value": 99})
        assert ResultStore(path).get("a") == {"key": "a", "value": 1}
        assert path.read_text().count('"key":"a"') == 1

    def test_truncated_trailing_row_dropped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "value": 1})
        with path.open("a") as handle:
            handle.write('{"key":"b","val')  # killed mid-write
        reloaded = ResultStore(path)
        assert reloaded.dropped_partial_row
        assert reloaded.keys() == {"a"}

    def test_append_after_partial_row_does_not_corrupt(self, tmp_path):
        """Loading truncates a partial tail so later appends start cleanly.

        Regression test: append used to glue the new row onto the partial
        line, which either lost the fsynced row on the next load or made the
        whole store unloadable ('corrupt result store')."""
        path = tmp_path / "store.jsonl"
        ResultStore(path).append({"key": "a", "value": 1})
        with path.open("a") as handle:
            handle.write('{"key":"b","val')
        recovered = ResultStore(path)
        recovered.append({"key": "c", "value": 3})
        recovered.append({"key": "d", "value": 4})
        reloaded = ResultStore(path)
        assert not reloaded.dropped_partial_row
        assert reloaded.keys() == {"a", "c", "d"}

    def test_parseable_tail_missing_newline_repaired(self, tmp_path):
        """A tail row that lost only its newline must not glue later appends."""
        path = tmp_path / "store.jsonl"
        path.write_text('{"key":"a"}\n{"key":"b"}')  # killed one byte short
        recovered = ResultStore(path)
        assert recovered.keys() == {"a", "b"} and not recovered.dropped_partial_row
        recovered.append({"key": "c"})
        assert ResultStore(path).keys() == {"a", "b", "c"}

    def test_unparseable_complete_tail_is_corruption_not_a_partial(self, tmp_path):
        """Appends always write 'row\\n', so a newline-terminated line can
        never be a partial write — an unparseable one is quarantined."""
        path = tmp_path / "store.jsonl"
        path.write_text('{"key":"a"}\nnot json\n')
        with pytest.warns(StoreCorruptionWarning, match="quarantined 1"):
            store = ResultStore(path)
        assert store.keys() == {"a"}
        assert [line.number for line in store.quarantined] == [2]
        # The evidence is preserved, not silently truncated away.
        assert path.read_text() == '{"key":"a"}\nnot json\n'

    def test_corrupt_interior_row_is_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('not json\n{"key":"a"}\n')
        with pytest.warns(StoreCorruptionWarning, match="repro store repair"):
            store = ResultStore(path)
        assert store.keys() == {"a"}
        assert len(store.quarantined) == 1

    def test_no_resume_truncates(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).append({"key": "a"})
        assert len(ResultStore(path, resume=False)) == 0
        assert not path.exists()

    def test_in_memory_store(self):
        store = ResultStore(None)
        store.append({"key": "a"})
        assert len(store) == 1 and store.path is None


class TestRunner:
    def test_one_row_per_cell_in_matrix_order(self, small_matrix, small_summary):
        cells = small_matrix.cells()
        assert small_summary.total == len(cells) == 4
        assert [row["key"] for row in small_summary.rows] == [c.key() for c in cells]

    def test_unsupported_cells_have_null_metrics(self, small_summary):
        gat_awb = [
            row
            for row in small_summary.rows
            if row["backend"] == "awb-gcn" and row["family"] == "gat"
        ]
        assert len(gat_awb) == 1
        assert gat_awb[0]["supported"] is False and gat_awb[0]["metrics"] is None

    def test_resume_skips_completed_cells(self, small_matrix, tmp_path):
        store_path = tmp_path / "resume.jsonl"
        first = run_sweep(small_matrix, store=ResultStore(store_path), jobs=1)
        assert (first.executed, first.skipped) == (4, 0)
        second = run_sweep(small_matrix, store=ResultStore(store_path), jobs=1)
        assert (second.executed, second.skipped) == (0, 4)
        assert [canonical_row(r) for r in second.rows] == [
            canonical_row(r) for r in first.rows
        ]

    def test_partial_store_resumes_remaining(self, small_matrix, tmp_path):
        cells = small_matrix.cells()
        store_path = tmp_path / "partial.jsonl"
        run_sweep(cells[:2], store=ResultStore(store_path), jobs=1)
        summary = run_sweep(small_matrix, store=ResultStore(store_path), jobs=1)
        assert (summary.executed, summary.skipped) == (2, 2)

    def test_parallel_matches_serial_byte_for_byte(self, small_matrix, small_summary):
        parallel = run_sweep(small_matrix, jobs=2)
        assert [canonical_row(r) for r in parallel.rows] == [
            canonical_row(r) for r in small_summary.rows
        ]

    def test_progress_callback_sees_every_executed_cell(self, small_matrix):
        seen = []
        run_sweep(
            small_matrix,
            jobs=1,
            progress=lambda cell, row, done, total, cached, wall_s: seen.append(
                (done, total, cached, wall_s)
            ),
        )
        assert len(seen) == 4
        assert seen[-1][:3] == (4, 4, False)
        assert not any(cached for _, _, cached, _ in seen)
        # Executed cells report their host wall time.
        assert all(wall_s > 0 for _, _, _, wall_s in seen)

    def test_progress_fires_for_resumed_cells_flagged_cached(self, small_matrix, tmp_path):
        """Resumed cells report progress too, so done/total never jumps.

        Regression test: the callback used to fire only for executed cells,
        making a resumed sweep's counter start past the resumed prefix.
        """
        store_path = tmp_path / "progress.jsonl"
        cells = small_matrix.cells()
        run_sweep(cells[:2], store=ResultStore(store_path), jobs=1)
        seen = []
        run_sweep(
            small_matrix,
            store=ResultStore(store_path),
            jobs=1,
            progress=lambda cell, row, done, total, cached, wall_s: seen.append(
                (done, cached)
            ),
        )
        # Counter covers every cell exactly once: resumed first (cached),
        # then the two freshly executed.
        assert [done for done, _ in seen] == [1, 2, 3, 4]
        assert [cached for _, cached in seen] == [True, True, False, False]

    def test_resuming_pre_sentinel_store_fails_clearly(self, small_matrix, tmp_path):
        """A store written before the cell-key change must not silently
        re-execute every cell next to its stale rows."""
        store_path = tmp_path / "old.jsonl"
        run_sweep(small_matrix.cells()[:1], store=ResultStore(store_path), jobs=1)
        row = next(iter(ResultStore(store_path).rows()))
        del row["row_format"]  # what a pre-sentinel sweep wrote
        store_path.write_text(canonical_row(row) + "\n")
        with pytest.raises(ValueError, match="format"):
            run_sweep(small_matrix, store=ResultStore(store_path), jobs=1)
        # Opting out of resume rebuilds the store cleanly.
        summary = run_sweep(
            small_matrix, store=ResultStore(store_path, resume=False), jobs=1
        )
        assert summary.executed == 4

    def test_rejects_bad_jobs(self, small_matrix):
        with pytest.raises(ValueError):
            run_sweep(small_matrix, jobs=0)

    def test_duplicate_cells_simulated_once(self, small_matrix):
        cell = small_matrix.cells()[0]
        summary = run_sweep([cell, cell, cell], jobs=1)
        assert summary.total == 3
        assert summary.executed == 1 and summary.skipped == 2
        assert len(summary.rows) == 3
        assert len({canonical_row(row) for row in summary.rows}) == 1

    def test_worker_error_still_drains_finished_rows_to_store(self, tmp_path):
        """One failing cell must not discard rows other workers completed."""
        strict = RetryPolicy(max_attempts=1, failed_rows=False)
        good = ScenarioMatrix.build(["cora"], ["gcn", "gat"], scale=0.1).cells()
        bad = SweepCell("cora", 0.1, good[0].seed, "nosuch", "gnnie", AcceleratorConfig())
        store_path = tmp_path / "err.jsonl"
        with pytest.raises(SweepError, match="nosuch") as excinfo:
            run_sweep([*good, bad], store=ResultStore(store_path), jobs=2, retry=strict)
        assert ResultStore(store_path).keys() == {cell.key() for cell in good}
        # Every failure is reported, with the landed-row count.
        assert excinfo.value.failures[0]["error_type"] == "KeyError"
        assert excinfo.value.rows_landed == len(good)
        # The resumed sweep re-executes only the failing cell.
        with pytest.raises(SweepError, match="nosuch"):
            run_sweep([*good, bad], store=ResultStore(store_path), jobs=2, retry=strict)

    def test_failing_cell_lands_failed_row_and_heals_on_resume(self, tmp_path):
        """Default policy: the sweep completes, the bad cell is an explicit
        failed row, and a later sweep re-executes exactly that cell."""
        good = ScenarioMatrix.build(["cora"], ["gcn"], scale=0.1).cells()
        bad = SweepCell("cora", 0.1, good[0].seed, "nosuch", "gnnie", AcceleratorConfig())
        store_path = tmp_path / "failed.jsonl"
        summary = run_sweep([*good, bad], store=ResultStore(store_path), jobs=1)
        assert summary.failed == 1 and summary.retries >= 1
        failed = [row for row in summary.rows if row.get("status") == "failed"]
        assert failed[0]["error"]["type"] == "KeyError"
        assert failed[0]["key"] == bad.key()
        assert failed[0]["metrics"] is None
        # Resume: only the failed cell re-executes (and fails again here).
        resumed = run_sweep([*good, bad], store=ResultStore(store_path), jobs=1)
        assert resumed.executed == 1 and resumed.skipped == len(good)

    def test_rejects_caller_graphs_with_persistent_store(self, tiny_graph, tmp_path):
        """Cell keys do not hash graph content, so a file-backed store could
        resume rows computed from a different graph of the same name."""
        cell = SweepCell(tiny_graph.name, None, 0, "gcn", "gnnie", AcceleratorConfig())
        with pytest.raises(ValueError, match="in-memory store"):
            run_sweep(
                [cell],
                store=ResultStore(tmp_path / "g.jsonl"),
                graphs={tiny_graph.name: tiny_graph},
            )

    def test_unsupported_cell_never_builds_the_dataset(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("unsupported cell must not build its dataset")

        monkeypatch.setattr("repro.datasets.synthetic.build_dataset", boom)
        cell = SweepCell("reddit", None, 0, "gat", "awb-gcn", AcceleratorConfig())
        [(row, _, _)] = run_batch_timed([cell])
        assert row["supported"] is False
        assert row["dataset_abbrev"] == "RD"

    def test_rows_independent_of_cell_order(self):
        """A cell's row must not depend on cells run earlier in the process.

        Regression test: an executor reused across cells once made ginconv
        rows depend on whether a gcn cell (different aggregation width) ran
        first in the same worker.  Cache simulations are now keyed on the
        priming width each plan sizes them with.
        """
        matrix = ScenarioMatrix.build(["cora"], ["gcn", "ginconv"], scale=0.1)
        forward = run_sweep(matrix.cells(), jobs=1).rows
        backward = run_sweep(list(reversed(matrix.cells())), jobs=1).rows
        assert {canonical_row(r) for r in forward} == {canonical_row(r) for r in backward}

    def test_caller_supplied_graph_used(self, tiny_graph):
        cell = SweepCell(tiny_graph.name, None, 0, "gcn", "gnnie", AcceleratorConfig())
        [(row, _, _)] = run_batch_timed([cell], tiny_graph)
        assert row["dataset_abbrev"] == tiny_graph.name
        assert row["metrics"]["cycles"] > 0


class TestDesignSpaceRerouting:
    def test_sweep_designs_matches_direct_simulation(self, tiny_graph):
        configs = [design_preset("A"), design_preset("E")]
        points = sweep_designs(tiny_graph, "gcn", configs)
        for config, point in zip(configs, points):
            direct = GNNIESimulator(config).run(tiny_graph, "gcn")
            assert point.cycles == direct.total_cycles
            assert point.latency_seconds == pytest.approx(direct.latency_seconds, rel=1e-12)
            assert point.energy_joules == pytest.approx(direct.energy_joules, rel=1e-12)

    def test_sweep_designs_parallel_matches_serial(self, tiny_graph):
        configs = [design_preset("A"), design_preset("E")]
        serial = sweep_designs(tiny_graph, "gcn", configs)
        parallel = sweep_designs(tiny_graph, "gcn", configs, jobs=2)
        assert [(p.cycles, p.latency_seconds) for p in serial] == [
            (p.cycles, p.latency_seconds) for p in parallel
        ]


class TestStoreBackedAggregation:
    @pytest.fixture(scope="class")
    def design_rows(self, tiny_graph):
        matrix = ScenarioMatrix(
            datasets=(DatasetCase(tiny_graph.name, seed=0),),
            families=("gcn",),
            backends=("gnnie",),
            configs=tuple(design_preset(name) for name in ("A", "D", "E")),
        )
        return run_sweep(matrix, graphs={tiny_graph.name: tiny_graph}).rows

    def test_design_points_round_trip(self, design_rows, tiny_graph):
        points = design_points_from_rows(design_rows)
        direct = sweep_designs(tiny_graph, "gcn", [design_preset(n) for n in ("A", "D", "E")])
        assert [(p.name, p.cycles, p.total_macs) for p in points] == [
            (p.name, p.cycles, p.total_macs) for p in direct
        ]
        assert all(p.config == d.config for p, d in zip(points, direct))

    def test_pareto_rows_subset_of_points(self, design_rows):
        front = pareto_rows(design_rows)
        assert front
        names = {p.name for p in design_points_from_rows(design_rows)}
        assert {p.name for p in front} <= names

    def test_speedup_rows_distinguish_same_name_configs(self, tiny_graph):
        """Two configs sharing a display name must not collapse to one.

        Regression test: GNNIE reference rows were keyed by ``config_name``,
        so a second ``replace()``d variant still named "GNNIE" silently
        overwrote the first and baselines paired with the wrong reference.
        """
        base = AcceleratorConfig()
        throttled = replace(base, input_buffer_bytes=2 * 1024)  # same name
        assert throttled.name == base.name
        matrix = ScenarioMatrix(
            datasets=(DatasetCase(tiny_graph.name, seed=0),),
            families=("gcn",),
            backends=("gnnie", "pyg-cpu"),
            configs=(base, throttled),
        )
        rows = run_sweep(matrix, graphs={tiny_graph.name: tiny_graph}).rows
        gnnie_latencies = {
            json.dumps(row["config"], sort_keys=True): row["metrics"]["latency_seconds"]
            for row in rows
            if row["backend"] == "gnnie"
        }
        assert len(set(gnnie_latencies.values())) == 2  # the variants differ
        reference = gnnie_latencies[
            json.dumps(config_to_dict(base), sort_keys=True)
        ]
        baseline_row = next(row for row in rows if row["backend"] == "pyg-cpu")
        entries = speedup_rows(rows)
        # The baseline platform is swept once, with configs[0]; its speedup
        # must reference that config's GNNIE row, not the last same-named one.
        assert len(entries) == 1
        assert entries[0]["speedup"] == pytest.approx(
            baseline_row["metrics"]["latency_seconds"] / reference
        )

    def test_speedup_rows_and_geomeans(self, small_summary):
        entries = speedup_rows(small_summary.rows)
        # awb-gcn supports only gcn -> exactly one speedup entry.
        assert [e["backend"] for e in entries] == ["awb-gcn"]
        assert entries[0]["speedup"] > 0
        geomeans = backend_geomeans(small_summary.rows)
        assert set(geomeans) == {"awb-gcn"}
        assert geomeans["awb-gcn"]["cells"] == 1

    def test_speedup_rows_pair_within_scale(self):
        """Baselines must pair with the GNNIE reference of their own scale.

        Regression test: the reference dict was keyed by (dataset, family,
        config) only, so a store holding two scales of one dataset paired
        every baseline row against whichever scale's GNNIE row loaded last.
        """
        matrix = ScenarioMatrix(
            datasets=(
                DatasetCase("cora", scale=0.05, seed=0),
                DatasetCase("cora", scale=0.1, seed=0),
            ),
            families=("gcn",),
            backends=("gnnie", "engn"),
        )
        rows = run_sweep(matrix, jobs=1).rows
        gnnie = {row["scale"]: row for row in rows if row["backend"] == "gnnie"}
        baseline = {row["scale"]: row for row in rows if row["backend"] == "engn"}
        assert len(gnnie) == len(baseline) == 2
        entries = {entry["scale"]: entry for entry in speedup_rows(rows)}
        assert set(entries) == {0.05, 0.1}
        for scale, entry in entries.items():
            expected = (
                baseline[scale]["metrics"]["latency_seconds"]
                / gnnie[scale]["metrics"]["latency_seconds"]
            )
            assert entry["speedup"] == pytest.approx(expected)
        # The two scales produce genuinely different ratios, so a cross-scale
        # pairing could not have passed by accident.
        assert entries[0.05]["speedup"] != pytest.approx(entries[0.1]["speedup"])

    def test_failed_rows_are_excluded_but_surfaced(self, small_summary):
        from repro.analysis import geomean_table_rows
        from repro.sweep import failed_row

        rows = list(small_summary.rows)
        healthy = speedup_rows(rows)
        # Fail one baseline cell and one GNNIE reference cell.
        cells = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie", "awb-gcn"], scale=0.1, seed=0
        ).cells()
        awb = next(c for c in cells if c.backend == "awb-gcn" and c.family == "gcn")
        gnnie_gat = next(c for c in cells if c.backend == "gnnie" and c.family == "gat")
        mixed = rows + [
            failed_row(awb, RuntimeError("boom"), attempts=2),
            failed_row(gnnie_gat, RuntimeError("boom"), attempts=1),
        ]
        # Failed rows never pair: entries are unchanged next to failures.
        assert speedup_rows(mixed) == healthy
        geomeans = backend_geomeans(mixed)
        assert geomeans["awb-gcn"]["failed"] == 1
        assert geomeans["gnnie"]["failed"] == 1
        assert geomeans["gnnie"]["cells"] == 0  # reference backend never pairs
        assert geomeans["awb-gcn"]["cells"] == 1
        table = {row["backend"]: row for row in geomean_table_rows(mixed)}
        assert table["gnnie"]["failed"] == 1
        # A failed-only backend still shows up with zeroed stats.
        assert table["gnnie"]["gnnie_geomean_speedup"] == 0.0
        # Failed GNNIE rows also stay out of the design-point rebuild.
        assert len(design_points_from_rows(mixed)) == len(design_points_from_rows(rows))


class TestSweepCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep"])
        assert args.datasets == "all" and args.models == "all" and args.backends == "all"
        assert args.jobs == 1 and args.store == "sweep.jsonl" and not args.no_resume

    def test_sweep_command_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie,engn",
            "--scale", "0.1",
            "--store", store,
            "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["total"] == 2 and first["executed"] == 2
        assert len(first["rows"]) == 2
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0 and second["skipped"] == 2
        assert second["rows"] == first["rows"]

    def test_sweep_command_table_output(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie,pyg-cpu",
            "--scale", "0.1",
            "--store", str(tmp_path / "t.jsonl"),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "2 cells (2 executed" in output
        assert "pyg-cpu" in output

    def test_sweep_rejects_unknown_axis_values(self, tmp_path, capsys):
        argv = ["sweep", "--datasets", "imagenet", "--store", str(tmp_path / "x.jsonl")]
        assert main(argv) == 2
        assert "unknown datasets" in capsys.readouterr().err

    def test_sweep_rejects_bad_jobs_and_scale(self, tmp_path, capsys):
        store = str(tmp_path / "x.jsonl")
        assert main(["sweep", "--jobs", "0", "--store", store]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["sweep", "--scale", "2.0", "--store", store]) == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_sweep_survives_corrupt_store(self, tmp_path, capsys):
        """A corrupt interior line no longer kills the sweep: it is
        quarantined at load and the sweep completes around it."""
        store = tmp_path / "corrupt.jsonl"
        store.write_text('not json\n{"key":"a"}\n')
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie",
            "--scale", "0.1",
            "--store", str(store),
            "--json",
        ]
        with pytest.warns(StoreCorruptionWarning):
            assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 1

    def test_store_verify_repair_cli_round_trip(self, tmp_path, capsys):
        store = tmp_path / "corrupt.jsonl"
        store.write_text('not json\n{"key":"a"}\n')
        assert main(["store", "verify", "--store", str(store)]) == 1
        assert "corrupt line 1" in capsys.readouterr().out
        assert main(["store", "repair", "--store", str(store), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed_lines"] == 1 and report["quarantine"]
        assert store.read_text() == '{"key":"a"}\n'
        assert (tmp_path / "corrupt.jsonl.quarantine").read_text() == "not json\n"
        assert main(["store", "verify", "--store", str(store)]) == 0

    def test_sweep_designs_axis(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie",
            "--designs", "A,E",
            "--scale", "0.1",
            "--store", str(tmp_path / "d.jsonl"),
            "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 2
        assert {row["config_name"] for row in report["rows"]} == {
            "Design A",
            "Design E (GNNIE)",
        }


class TestSweepTraceCLI:
    def test_sweep_trace_flag_writes_valid_merged_trace(self, tmp_path, capsys):
        from repro.obs import assert_valid_chrome_trace

        trace_path = tmp_path / "fleet.json"
        argv = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn,gat",
            "--backends", "gnnie",
            "--scale", "0.1",
            "--jobs", "2",
            "--store", str(tmp_path / "t.jsonl"),
            "--trace", str(trace_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "rows/s" in captured.out  # final summary line
        assert str(trace_path) in captured.err
        document = json.loads(trace_path.read_text())
        assert_valid_chrome_trace(document)
        cells = [
            e for e in document["traceEvents"]
            if e["ph"] == "B" and e.get("cat") == "cell"
        ]
        assert len(cells) == 2
        # Worker segments keep their own pid tracks, merged with the
        # parent's sweep span into one timeline.
        assert len({e["pid"] for e in document["traceEvents"]}) >= 2
        metrics = {m["name"]: m["value"] for m in document["metadata"]["metrics"]}
        assert metrics["sweep.cells.executed"] == 2

    def test_traced_sweep_rows_match_untraced_store(self, tmp_path, capsys):
        base = [
            "sweep",
            "--datasets", "cora",
            "--models", "gcn",
            "--backends", "gnnie",
            "--scale", "0.1",
            "--json",
        ]
        assert main(base + ["--store", str(tmp_path / "plain.jsonl")]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(
            base
            + ["--store", str(tmp_path / "traced.jsonl"),
               "--trace", str(tmp_path / "trace.json")]
        ) == 0
        traced = json.loads(capsys.readouterr().out)
        assert traced["rows"] == plain["rows"]

    def test_tune_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs import assert_valid_chrome_trace

        trace_path = tmp_path / "tune.json"
        argv = [
            "tune",
            "--dataset", "cora",
            "--model", "gcn",
            "--scale", "0.1",
            "--generations", "2",
            "--population", "2",
            "--store", str(tmp_path / "tune.jsonl"),
            "--trace", str(trace_path),
            "--json",
        ]
        assert main(argv) == 0
        document = json.loads(trace_path.read_text())
        assert_valid_chrome_trace(document)
        generations = [
            e for e in document["traceEvents"]
            if e["ph"] == "B" and e.get("cat") == "tune"
        ]
        assert [e["name"] for e in generations] == ["generation0", "generation1"]
