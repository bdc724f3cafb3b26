"""Tests for the command-line interface (`python -m repro`)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_cache_defaults(self):
        args = build_parser().parse_args(["cache"])
        assert args.dataset == "cora"
        assert args.mechanism == "victim,miss,stream"
        assert args.policy == "vertex_order"

    @pytest.mark.parametrize("policy", ["belady", "degree_aware"])
    def test_cache_rejects_unknown_policy(self, policy):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "--policy", policy])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "cora"
        assert args.model == "gcn"
        assert args.design is None

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--dataset", "imagenet"])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--model", "transformer"])

    @pytest.mark.parametrize(
        "command",
        ["simulate", "profile", "plan", "compare", "designs", "cache", "sweep", "tune"],
    )
    def test_scale_outside_the_unit_interval_is_a_usage_error(self, command, capsys):
        for scale in ("0", "-1", "1.5"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--scale", scale])
            assert excinfo.value.code == 2
            error = capsys.readouterr().err
            assert f"argument --scale: must be in (0, 1], got {scale}" in error
        for scale, value in (("1", 1.0), ("0.25", 0.25), ("1e-3", 0.001)):
            assert build_parser().parse_args([command, "--scale", scale]).scale == value
        assert build_parser().parse_args([command]).scale is None

    @pytest.mark.parametrize(
        "command", ["simulate", "profile", "plan", "compare", "designs", "cache"]
    )
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        for seed in ("-1", "-7"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--seed", seed])
            assert excinfo.value.code == 2
            error = capsys.readouterr().err
            assert f"argument --seed: must be a non-negative integer, got {seed}" in error
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--seed", "1.5"])
        assert "argument --seed: invalid int value: '1.5'" in capsys.readouterr().err
        for seed in ("0", "3"):
            assert build_parser().parse_args([command, "--seed", seed]).seed == int(seed)

    @pytest.mark.parametrize("chips", ["0", "-2"])
    @pytest.mark.parametrize("command", ["plan", "compare"])
    def test_non_positive_chips_is_a_usage_error(self, command, chips, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--chips", chips])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"argument --chips: must be a positive integer, got {chips}" in error
        assert build_parser().parse_args([command, "--chips", "4"]).chips == 4
        assert build_parser().parse_args([command]).chips == 1

    @pytest.mark.parametrize("command", ["sweep", "tune"])
    def test_a_negative_base_seed_stays_valid(self, command):
        """Sweeps and the tuner hash their base seed into per-dataset seeds,
        so a negative one is a valid base."""
        assert build_parser().parse_args([command, "--seed", "-1"]).seed == -1


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "Cora" in output and "Reddit" in output

    def test_simulate_command_table(self, capsys):
        exit_code = main(
            ["simulate", "--dataset", "cora", "--model", "gcn", "--scale", "0.1", "--seed", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Per-phase breakdown" in output
        assert "weighting" in output and "aggregation" in output

    def test_simulate_command_json(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dataset",
                    "cora",
                    "--model",
                    "gat",
                    "--scale",
                    "0.1",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "GAT"
        assert report["total_cycles"] > 0

    def test_simulate_with_design_and_roofline(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dataset",
                    "cora",
                    "--model",
                    "gcn",
                    "--scale",
                    "0.1",
                    "--design",
                    "A",
                    "--roofline",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Roofline classification" in output
        assert "compute-bound fraction" in output

    def test_plan_command_table(self, capsys):
        assert main(["plan", "--dataset", "cora", "--model", "gat", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "Inference plan: GAT" in output
        assert "WeightingOp" in output and "AttentionOp" in output and "AggregationOp" in output
        assert "preprocess(degree_binning)" in output

    def test_plan_command_json(self, capsys):
        assert (
            main(["plan", "--dataset", "cora", "--model", "diffpool", "--scale", "0.1", "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["family"] == "diffpool"
        assert len(document["layers"]) == 3
        assert document["layers"][2]["ops"][0]["op"] == "DenseMatmulOp"

    def test_plan_command_every_family(self, capsys):
        from repro.models import MODEL_FAMILIES

        for family in MODEL_FAMILIES:
            assert main(["plan", "--dataset", "cora", "--model", family, "--scale", "0.1"]) == 0
        assert "Inference plan" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "--dataset", "cora", "--model", "gcn", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "PyG-CPU" in output and "AWB-GCN" in output and "EnGN" in output

    def test_compare_command_json(self, capsys):
        assert (
            main(["compare", "--dataset", "cora", "--model", "gcn", "--scale", "0.1", "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["model"] == "GCN"
        platforms = [row["platform"] for row in document["rows"]]
        assert platforms[0] == "GNNIE" and "EnGN" in platforms
        assert all(row["supported"] for row in document["rows"])
        assert all(row["speedup"] >= 1.0 for row in document["rows"])

    def test_compare_gnnie_row_is_one_plain_execute(self, capsys):
        """One chip is the same path as many: a plain execute of the
        lowered plan, and ``--chips 1`` prints the default's bytes."""
        from repro.datasets import build_dataset
        from repro.hw import design_preset
        from repro.plan import lower
        from repro.sim import GNNIEExecutor

        argv = ["compare", "--dataset", "cora", "--model", "gcn", "--scale", "0.1",
                "--design", "E", "--json"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--chips", "1"]) == 0
        assert capsys.readouterr().out == default
        document = json.loads(default)
        assert "chips" not in document
        graph = build_dataset("cora", scale=0.1, seed=0)
        config = design_preset("E")
        plain = GNNIEExecutor(config).execute(lower("gcn", graph), graph, config)
        assert document["rows"][0] == {
            "platform": "GNNIE",
            "supported": True,
            "latency_ms": round(plain.latency_seconds * 1e3, 4),
            "speedup": 1.0,
        }

    def test_compare_command_json_unsupported_platforms_stay_typed(self, capsys):
        assert (
            main(["compare", "--dataset", "cora", "--model", "gat", "--scale", "0.1", "--json"])
            == 0
        )
        rows = json.loads(capsys.readouterr().out)["rows"]
        unsupported = [row for row in rows if not row["supported"]]
        assert {row["platform"] for row in unsupported} == {"HyGCN", "AWB-GCN", "EnGN"}
        # Numeric fields are null, never placeholder strings, so consumers
        # can aggregate without type checks.
        assert all(row["latency_ms"] is None and row["speedup"] is None for row in unsupported)
        assert all(
            isinstance(row["speedup"], float) for row in rows if row["supported"]
        )

    def test_compare_marks_unsupported_platforms(self, capsys):
        assert main(["compare", "--dataset", "cora", "--model", "gat", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "unsupported" in output

    def test_designs_command(self, capsys):
        assert main(["designs", "--dataset", "cora", "--model", "gcn", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "Design A" in output and "Design E" in output

    def test_cache_command_per_mechanism_table(self, capsys):
        assert main(["cache", "--dataset", "cora", "--mechanism", "victim,stream"]) == 0
        output = capsys.readouterr().out
        assert "Miss-path hierarchy" in output
        assert "victim" in output and "stream" in output and "victim+stream" in output
        assert "dram_random_avoided" in output and "hit_rate_pct" in output

    def test_cache_command_all_policies(self, capsys):
        assert (
            main(
                [
                    "cache",
                    "--dataset",
                    "cora",
                    "--scale",
                    "0.2",
                    "--policy",
                    "all",
                    "--mechanism",
                    "stream",
                    "--stream-buffers",
                    "2",
                    "--stream-depth",
                    "32",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        rows = [line.split("|") for line in output.splitlines() if "| stream" in line]
        policies = {row[1].strip() for row in rows}
        assert policies == {"lru", "mru", "static_partition", "vertex_order"}
        assert "degree_aware" not in output

    @staticmethod
    def _forbid_dataset_build(monkeypatch):
        """A rejected miss-path flag must fail before the dataset is built."""

        def build_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built before the flags were checked")

        monkeypatch.setattr("repro.cli.build_dataset", build_dataset)

    def test_cache_command_rejects_unknown_mechanism(self, capsys, monkeypatch):
        self._forbid_dataset_build(monkeypatch)
        assert main(["cache", "--dataset", "cora", "--mechanism", "belady"]) == 2
        assert "unknown mechanisms" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--stream-depth", "--victim-entries"])
    def test_cache_command_rejects_a_non_positive_size(self, capsys, monkeypatch, flag):
        self._forbid_dataset_build(monkeypatch)
        assert main(["cache", "--dataset", "cora", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert "invalid miss-path configuration" in captured.err
        assert captured.out == ""

    def test_cache_command_sizing_flags_reach_the_config(self, capsys):
        def stream_row(depth):
            argv = ["cache", "--dataset", "cora", "--scale", "0.2", "--mechanism", "stream"]
            assert main([*argv, "--stream-depth", depth]) == 0
            output = capsys.readouterr().out
            return [line for line in output.splitlines() if "| stream" in line]

        shallow, deep = stream_row("1"), stream_row("32")
        assert len(shallow) == len(deep) == 1
        assert shallow != deep


class TestProfileCommand:
    def test_parser_accepts_family_and_model_alias(self):
        assert build_parser().parse_args(["profile", "--family", "gat"]).family == "gat"
        assert build_parser().parse_args(["profile", "--model", "gat"]).family == "gat"

    def test_profile_table_output(self, capsys):
        assert main(["profile", "--dataset", "cora", "--family", "gcn", "--scale", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "Span attribution" in output
        assert "inference/layer0/op:weighting" in output
        assert "Metrics" in output and "executor.cache_sim.runs" in output

    def test_profile_json_report(self, capsys):
        assert main(
            ["profile", "--dataset", "cora", "--family", "gcn", "--scale", "0.2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        op_cycles = sum(
            row["cycles"] for row in report["spans"] if "/op:" in row["span"] or "preprocess" in row["span"]
        )
        assert op_cycles == report["summary"]["cycles"]
        assert report["trace"] is None
        assert any(row["name"] == "executor.cache_sim.runs" for row in report["metrics"])

    def test_profile_trace_and_metrics_files(self, tmp_path, capsys):
        from repro.obs import assert_valid_chrome_trace

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.csv"
        assert main(
            [
                "profile",
                "--dataset", "cora",
                "--family", "gcn",
                "--scale", "0.2",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        document = json.loads(trace_path.read_text())
        assert_valid_chrome_trace(document)
        # The acceptance invariant: per-phase-op modeled cycles in the trace
        # sum to the inference's total_cycles (stored in the metadata).
        op_cycles = sum(
            event["args"].get("cycles", 0)
            for event in document["traceEvents"]
            if event["ph"] == "B" and event.get("cat") == "op"
        )
        assert op_cycles == document["metadata"]["total_cycles"]
        # Layer tracks: thread metadata names one row per layer.
        thread_names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "layer 0" in thread_names and "inference" in thread_names
        assert metrics_path.read_text().startswith("name,kind,labels,value")
        assert str(trace_path) in capsys.readouterr().out

    def test_profile_charges_dataset_build_to_a_host_span(self, tmp_path, capsys):
        from repro.obs import assert_valid_chrome_trace

        trace_path = tmp_path / "t.json"
        assert main(
            ["profile", "--dataset", "cora", "--family", "gcn", "--json",
             "--trace-out", str(trace_path)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        spans = report["spans"]
        (build,) = [row for row in spans if row["span"] == "build_dataset"]
        assert build["calls"] == 1 and build["host_ms"] > 0 and build["cycles"] == 0
        op_cycles = sum(
            row["cycles"] for row in spans if "/op:" in row["span"] or "preprocess" in row["span"]
        )
        assert op_cycles == report["summary"]["cycles"]

        document = json.loads(trace_path.read_text())
        assert_valid_chrome_trace(document)
        (begin,) = [
            event for event in document["traceEvents"]
            if event["ph"] == "B" and event["name"] == "build_dataset"
        ]
        assert begin["cat"] == "host"
        assert begin["args"] == {"dataset": "CR", "scale": 1.0, "vertices": 2708, "edges": 20968}
        op_cycles = sum(
            event["args"].get("cycles", 0)
            for event in document["traceEvents"]
            if event["ph"] == "B" and event.get("cat") == "op"
        )
        assert op_cycles == document["metadata"]["total_cycles"]

    def test_profile_design_override(self, capsys):
        assert main(
            ["profile", "--dataset", "cora", "--family", "gcn", "--scale", "0.2",
             "--design", "E", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["config"].startswith("Design E")
