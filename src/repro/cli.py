"""Command-line interface for the GNNIE reproduction.

Examples
--------
List the registered datasets and their Table II statistics::

    python -m repro datasets

Simulate one inference and print the per-phase report::

    python -m repro simulate --dataset cora --model gat
    python -m repro simulate --dataset pubmed --model gcn --design A --json

Profile one inference: span-by-span attribution (modeled cycles, MACs,
DRAM bytes, energy; host wall time) plus a Perfetto-loadable Chrome trace::

    python -m repro profile --dataset cora --family gcn
    python -m repro profile --dataset cora --family gcn --trace-out t.json \\
        --metrics-out metrics.csv

Show the lowered phase-op program for one (dataset, model) pair::

    python -m repro plan --dataset cora --model gat
    python -m repro plan --dataset pubmed --model diffpool --json

Compare GNNIE against the baseline platforms::

    python -m repro compare --dataset citeseer --model gcn
    python -m repro compare --dataset citeseer --model gcn --json

Sweep the named design points A–E::

    python -m repro designs --dataset cora --model gcn

Evaluate miss-path mechanisms (victim cache / miss cache / stream buffers)
over the misses of the id-order cache policies::

    python -m repro cache --dataset cora --mechanism victim,stream
    python -m repro cache --dataset pubmed --policy all --mechanism victim,miss,stream

Run a scenario sweep (dataset × family × backend matrix) into a resumable
result store, fanning cells across worker processes::

    python -m repro sweep --jobs 4 --store sweep.jsonl
    python -m repro sweep --datasets cora,citeseer --models gcn,gat \\
        --backends gnnie,pyg-cpu --scale 0.1 --jobs 2 --store sweep.jsonl
    python -m repro sweep --store sweep.jsonl --json   # resumes: skips done cells
    python -m repro sweep --jobs 2 --store sweep.jsonl --trace sweep-trace.json

Scale out across simulated multi-chip fleets (edge-cut partition plus
halo-exchange traffic over the chip-to-chip link)::

    python -m repro plan --dataset cora --model gcn --chips 4
    python -m repro compare --dataset cora --model gcn --chips 4
    python -m repro sweep --backends gnnie --chips 1,4,16 --store sweep.jsonl

The fleet is supervised: failing groups retry with backoff, batch groups
degrade to per-cell execution to isolate a poisoned cell, crashed workers
rebuild the pool, and permanently-failed cells land as explicit ``failed``
rows (``--strict`` raises instead).  ``--faults`` arms a deterministic
chaos plan (see :mod:`repro.faults`)::

    python -m repro sweep --jobs 2 --timeout 30 --max-attempts 3 --store s.jsonl
    python -m repro sweep --jobs 2 --faults plan.json --store s.jsonl

Inspect and heal a result store (corrupt rows are quarantined at load, the
``store`` tools excise or rewrite them)::

    python -m repro store verify --store sweep.jsonl
    python -m repro store repair --store sweep.jsonl
    python -m repro store compact --store sweep.jsonl

Close the design-space loop: generations of sweep -> aggregate -> propose,
resumable through the same store machinery::

    python -m repro tune --dataset cora --model gcn --generations 4 \\
        --population 6 --mac-budget 1280 --jobs 2 --store tune.jsonl
    python -m repro tune --dataset cora --model gcn --generations 4 \\
        --population 6 --store tune.jsonl --json   # resume: 0 executed
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

import repro
from repro.analysis import compare_against_platform, format_table
from repro.analysis.roofline import roofline_analysis
from repro.baselines import AWBGCNModel, HyGCNModel, PyGCPUModel, PyGGPUModel
from repro.baselines.engn import EnGNModel
from repro.cache import ID_ORDER_POLICIES, MISS_PATH_MECHANISMS, miss_path_ablation_rows
from repro.cache.miss_path import _validate_ablation
from repro.datasets import build_dataset, dataset_names, dataset_spec
from repro.hw import AcceleratorConfig, design_preset
from repro.hw.config import CacheKnobs, pricing_view
from repro.models import MODEL_FAMILIES
from repro.plan import executor_names, lower
from repro.sim import GNNIEExecutor, input_buffer_capacity
from repro.sim.trace import phase_table, result_to_json
from repro.sweep import (
    ResultStore,
    RetryPolicy,
    ScenarioMatrix,
    SweepError,
    compact_store,
    is_failed_row,
    repair_store,
    run_sweep,
    verify_store,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNNIE (DAC 2022) reproduction: simulate GNN inference on the GNNIE accelerator model.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list registered datasets")
    datasets_parser.set_defaults(handler=_cmd_datasets)

    simulate_parser = subparsers.add_parser("simulate", help="simulate one inference")
    _add_workload_arguments(simulate_parser)
    simulate_parser.add_argument("--json", action="store_true", help="emit the full JSON report")
    simulate_parser.add_argument(
        "--roofline", action="store_true", help="append a per-phase bottleneck analysis"
    )
    simulate_parser.set_defaults(handler=_cmd_simulate)

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile one inference: per-span attribution + Chrome-trace export",
    )
    profile_parser.add_argument(
        "--dataset", default="cora", choices=dataset_names(), help="benchmark dataset"
    )
    profile_parser.add_argument(
        "--family",
        "--model",
        dest="family",
        default="gcn",
        choices=list(MODEL_FAMILIES),
        help="GNN family (Table III); --model is accepted as an alias",
    )
    profile_parser.add_argument(
        "--scale", type=_scale, default=None, help="dataset scale factor in (0, 1]"
    )
    profile_parser.add_argument("--seed", type=_seed, default=0, help="dataset generation seed")
    profile_parser.add_argument(
        "--design",
        default=None,
        choices=["A", "B", "C", "D", "E"],
        help="use a named design point instead of the default GNNIE configuration",
    )
    profile_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto), "
        "one track per GNN layer",
    )
    profile_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry (.csv -> CSV, anything else -> JSON)",
    )
    profile_parser.add_argument(
        "--json", action="store_true", help="emit the profile report as JSON"
    )
    profile_parser.set_defaults(handler=_cmd_profile)

    plan_parser = subparsers.add_parser(
        "plan", help="show the lowered phase-op program for a (dataset, model) pair"
    )
    _add_workload_arguments(plan_parser)
    plan_parser.add_argument(
        "--chips",
        type=_chips,
        default=1,
        help="partition across N simulated chips and show each chip's plan "
        "with its spliced halo-exchange ops (default: 1, the plain plan)",
    )
    plan_parser.add_argument(
        "--check",
        action="store_true",
        help="verify the plan (and every chip plan with --chips > 1) against "
        "the repro.check verifier rules before printing",
    )
    plan_parser.add_argument("--json", action="store_true", help="emit the plan as JSON")
    plan_parser.set_defaults(handler=_cmd_plan)

    check_parser = subparsers.add_parser(
        "check",
        help="static analysis: determinism linter over src/repro plus plan "
        "verification across every family x dataset",
    )
    check_parser.add_argument(
        "--lint",
        action="store_true",
        help="run only the determinism linter (default: linter + plans)",
    )
    check_parser.add_argument(
        "--plans",
        action="store_true",
        help="run only plan verification (default: linter + plans)",
    )
    check_parser.add_argument(
        "--paths",
        nargs="+",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    check_parser.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    check_parser.set_defaults(handler=_cmd_check)

    compare_parser = subparsers.add_parser("compare", help="compare against baseline platforms")
    _add_workload_arguments(compare_parser)
    compare_parser.add_argument(
        "--chips",
        type=_chips,
        default=1,
        help="run GNNIE scaled out across N simulated chips (baselines model "
        "fixed silicon and always run single-chip; default: 1)",
    )
    compare_parser.add_argument(
        "--json", action="store_true", help="emit the comparison rows as JSON"
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    designs_parser = subparsers.add_parser("designs", help="evaluate design points A-E")
    _add_workload_arguments(designs_parser)
    designs_parser.set_defaults(handler=_cmd_designs)

    cache_parser = subparsers.add_parser(
        "cache",
        help="evaluate miss-path mechanisms (victim/miss/stream) over the id-order "
        "policies' misses",
    )
    cache_parser.add_argument(
        "--dataset", default="cora", choices=dataset_names(), help="benchmark dataset"
    )
    cache_parser.add_argument(
        "--scale", type=_scale, default=None, help="dataset scale factor in (0, 1]"
    )
    cache_parser.add_argument("--seed", type=_seed, default=0, help="dataset generation seed")
    cache_parser.add_argument(
        "--mechanism",
        default=",".join(MISS_PATH_MECHANISMS),
        help=(
            "comma-separated miss-path mechanisms to evaluate "
            f"(known: {', '.join(MISS_PATH_MECHANISMS)}); each is evaluated alone, "
            "plus one combined row when several are given"
        ),
    )
    cache_parser.add_argument(
        "--policy",
        default="vertex_order",
        choices=[*ID_ORDER_POLICIES, "all"],
        help="id-order policy whose misses are filtered, or all four (default: "
        "the vertex-order baseline, Fig. 18's no-caching policy)",
    )
    cache_parser.add_argument(
        "--feature-length",
        type=int,
        default=128,
        help="aggregated feature length used to size one vertex record",
    )
    cache_parser.add_argument(
        "--victim-entries", type=int, default=None, help="victim cache entries"
    )
    cache_parser.add_argument(
        "--miss-entries", type=int, default=None, help="miss cache tag entries"
    )
    cache_parser.add_argument(
        "--stream-buffers", type=int, default=None, help="number of stream buffers"
    )
    cache_parser.add_argument(
        "--stream-depth", type=int, default=None, help="prefetch depth per stream buffer"
    )
    cache_parser.set_defaults(handler=_cmd_cache)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a (dataset × model × backend) scenario matrix into a resumable store",
    )
    sweep_parser.add_argument(
        "--datasets",
        default="all",
        help="comma-separated dataset names, or 'all' (default: all five)",
    )
    sweep_parser.add_argument(
        "--models",
        default="all",
        help="comma-separated GNN families, or 'all' (default: all five)",
    )
    sweep_parser.add_argument(
        "--backends",
        default="all",
        help=(
            "comma-separated executor backends, or 'all' "
            f"(default: {', '.join(executor_names())})"
        ),
    )
    sweep_parser.add_argument(
        "--designs",
        default=None,
        help="comma-separated design points A-E to sweep as configurations "
        "(default: the GNNIE configuration); baseline platforms model fixed "
        "silicon and are swept once regardless",
    )
    sweep_parser.add_argument(
        "--scale", type=_scale, default=None,
        help="dataset scale override in (0, 1] applied to every dataset "
        "(default: each dataset's registry scale)",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; per-dataset seeds are derived deterministically from it",
    )
    sweep_parser.add_argument(
        "--chips",
        default="1",
        help="comma-separated chip counts to sweep as a scale-out axis "
        "(e.g. '1,4,16'); counts above 1 apply only to backends that "
        "support scale-out (default: 1)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = run in-process)"
    )
    sweep_parser.add_argument(
        "--store", default="sweep.jsonl", help="result store path (JSONL, one row per cell)"
    )
    sweep_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate an existing store instead of skipping its completed cells",
    )
    sweep_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace the fleet and write a merged Chrome trace-event JSON "
        "(one track per worker process); rows are unchanged",
    )
    sweep_parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="executions a failing group is charged before it degrades / "
        "fails permanently (default: 2)",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per dispatched group under --jobs > 1; an "
        "expired group's worker is terminated and the group charged one "
        "attempt (default: no timeout)",
    )
    sweep_parser.add_argument(
        "--strict",
        action="store_true",
        help="raise one SweepError aggregating every permanent failure "
        "instead of landing explicit failed rows",
    )
    sweep_parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="arm a deterministic fault-injection plan: a JSON file path or "
        "inline JSON (chaos testing; see repro.faults)",
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="emit the summary and all rows as JSON"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and heal a result store (verify / repair / compact)",
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    for action, description in (
        ("verify", "read-only health report; exit 1 if damage is found"),
        ("repair", "excise corrupt lines into a .quarantine sidecar, drop a partial tail"),
        ("compact", "rewrite one canonical checksummed line per key (last write wins)"),
    ):
        action_parser = store_subparsers.add_parser(action, help=description)
        action_parser.add_argument(
            "--store", required=True, help="result store path (JSONL)"
        )
        action_parser.add_argument(
            "--json", action="store_true", help="emit the report as JSON"
        )
        action_parser.set_defaults(handler=_cmd_store, store_command=action)

    tune_parser = subparsers.add_parser(
        "tune",
        help="closed-loop autotuner: sweep -> aggregate -> propose over generations",
    )
    tune_parser.add_argument(
        "--dataset", default="cora", choices=dataset_names(), help="benchmark dataset"
    )
    tune_parser.add_argument(
        "--model", default="gcn", choices=list(MODEL_FAMILIES), help="GNN family (Table III)"
    )
    tune_parser.add_argument(
        "--scale", type=_scale, default=None, help="dataset scale factor in (0, 1]"
    )
    tune_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the dataset and the per-generation proposer RNG",
    )
    tune_parser.add_argument(
        "--generations", type=int, default=4, help="generations of the closed loop"
    )
    tune_parser.add_argument(
        "--population", type=int, default=6, help="candidate configurations per generation"
    )
    tune_parser.add_argument(
        "--mac-budget", type=int, default=1280,
        help="total-MAC admissibility budget for proposed allocations",
    )
    tune_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes per generation sweep"
    )
    tune_parser.add_argument(
        "--store", default="tune.jsonl", help="resumable result store path (JSONL)"
    )
    tune_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate an existing store instead of serving its completed cells",
    )
    tune_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace the tuning fleet (one generation span per sweep) and "
        "write a merged Chrome trace-event JSON",
    )
    tune_parser.add_argument(
        "--json", action="store_true", help="emit the full tuning report as JSON"
    )
    tune_parser.set_defaults(handler=_cmd_tune)

    return parser


def _scale(text: str) -> float:
    """``--scale``'s argparse type: a dataset scale factor in (0, 1]."""
    try:
        scale = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < scale <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return scale


def _seed(text: str) -> int:
    """``--seed``'s argparse type for a dataset seed: numpy needs it >= 0."""
    return _int_at_least(text, 0, "a non-negative integer")


def _chips(text: str) -> int:
    """``--chips``'s argparse type for one chip count (``plan``, ``compare``)."""
    return _int_at_least(text, 1, "a positive integer")


def _int_at_least(text: str, low: int, what: str) -> int:
    """``text`` as an int of at least ``low``; an argparse error says it must be ``what``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
    return value


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="cora", choices=dataset_names(), help="benchmark dataset"
    )
    parser.add_argument(
        "--model", default="gcn", choices=list(MODEL_FAMILIES), help="GNN family (Table III)"
    )
    parser.add_argument(
        "--scale", type=_scale, default=None, help="dataset scale factor in (0, 1]"
    )
    parser.add_argument("--seed", type=_seed, default=0, help="dataset generation seed")
    parser.add_argument(
        "--design",
        default=None,
        choices=["A", "B", "C", "D", "E"],
        help="use a named design point instead of the default GNNIE configuration",
    )


def _load(args: argparse.Namespace):
    graph = build_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = design_preset(args.design) if args.design else AcceleratorConfig()
    return graph, config


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        spec = dataset_spec(name)
        rows.append(
            {
                "dataset": spec.name,
                "abbrev": spec.abbreviation,
                "vertices": spec.num_vertices,
                "edges": spec.num_edges,
                "features": spec.feature_length,
                "labels": spec.num_labels,
                "feature_sparsity_pct": round(100 * spec.feature_sparsity, 2),
                "default_scale": spec.default_scale,
            }
        )
    print(format_table(rows, title="Registered datasets (Table II)"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph, config = _load(args)
    result = GNNIEExecutor(config).execute(lower(args.model, graph), graph)
    if args.json:
        print(result_to_json(result))
        return 0
    print(format_table([result.summary()], title=f"GNNIE {args.model.upper()} on {graph.name}"))
    print()
    print(format_table(phase_table(result), title="Per-phase breakdown"))
    if args.roofline:
        summary = roofline_analysis(result, config)
        rows = [
            {
                "layer": phase.layer_index,
                "phase": phase.phase,
                "cycles": phase.total_cycles,
                "intensity_macs_per_byte": phase.arithmetic_intensity,
                "bound": phase.bound,
            }
            for phase in summary.phases
        ]
        print()
        print(format_table(rows, title="Roofline classification"))
        print(f"compute-bound fraction: {summary.compute_bound_fraction:.2f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        flame_rows,
        metrics_to_csv,
        metrics_to_json,
        write_chrome_trace,
    )

    tracer = Tracer()
    metrics = MetricsRegistry()
    # Host time only: building the graph is set-up, not modeled work.
    with tracer.span("build_dataset", "host") as span:
        graph, config = _load(args)
        span.set(
            dataset=graph.name,
            scale=dataset_spec(args.dataset).scaled(args.scale).scale,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        )
    result = GNNIEExecutor(config, tracer=tracer, metrics=metrics).execute(
        lower(args.family, graph), graph
    )

    metadata = {
        "dataset": graph.name,
        "family": args.family,
        "config": config.name,
        "total_cycles": result.total_cycles,
        "latency_seconds": result.latency_seconds,
    }
    trace_path = None
    if args.trace_out:
        trace_path = write_chrome_trace(
            args.trace_out,
            tracer.records,
            track="layer",
            metrics=metrics,
            metadata=metadata,
        )
    if args.metrics_out:
        text = (
            metrics_to_csv(metrics)
            if args.metrics_out.endswith(".csv")
            else metrics_to_json(metrics) + "\n"
        )
        with open(args.metrics_out, "w") as handle:
            handle.write(text)

    flame = flame_rows(tracer.records)
    if args.json:
        print(
            json.dumps(
                {
                    "summary": result.summary(),
                    "spans": flame,
                    "metrics": metrics.snapshot(),
                    "trace": str(trace_path) if trace_path else None,
                },
                indent=2,
            )
        )
        return 0
    print(
        format_table(
            [result.summary()], title=f"GNNIE {args.family.upper()} on {graph.name}"
        )
    )
    print()
    print(format_table(flame, title="Span attribution (modeled cycles + host time)"))
    snapshot = metrics.snapshot()
    if snapshot:
        rows = [
            {
                "metric": entry["name"],
                "kind": entry["kind"],
                "labels": ";".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
                or "-",
                "value": entry["value"],
            }
            for entry in snapshot
        ]
        print()
        print(format_table(rows, title="Metrics"))
    if trace_path is not None:
        print(f"\nChrome trace written to {trace_path} (load in Perfetto or chrome://tracing)")
    return 0


def _check_plans(plans: "list[tuple[str, object]]") -> int:
    """Verify labeled plans, printing violations; 0 when all are clean."""
    from repro.check import plan_violations

    failures = 0
    for label, plan in plans:
        violations = plan_violations(plan)  # type: ignore[arg-type]
        if violations:
            failures += 1
            for violation in violations:
                print(f"{label}: {violation.describe()}", file=sys.stderr)
    return failures


def _cmd_plan(args: argparse.Namespace) -> int:
    graph, _ = _load(args)
    plan = lower(args.model, graph)
    if args.check and args.chips == 1:
        if _check_plans([(f"{args.model}/{graph.name}", plan)]):
            return 1
        print(f"plan verified clean: {args.model} on {graph.name}", file=sys.stderr)
    if args.chips == 1:
        if args.json:
            print(plan.to_json())
            return 0
        title = (
            f"Inference plan: {plan.family.upper()} on {graph.name} "
            f"({plan.num_layers} layers, {plan.in_features} -> {plan.out_features} features)"
        )
        print(format_table(plan.op_rows(), title=title))
        return 0

    from repro.scaleout import partition_workload

    workload = partition_workload(graph, plan, args.chips)
    partition = workload.partition
    if args.check:
        labeled = [(f"{args.model}/{graph.name}", plan)] + [
            (f"{args.model}/{graph.name}/chip{chip}", chip_plan)
            for chip, chip_plan in enumerate(workload.chip_plans)
        ]
        if _check_plans(labeled):
            return 1
        print(
            f"plan verified clean: {args.model} on {graph.name} "
            f"(+{len(workload.chip_plans)} chip plans)",
            file=sys.stderr,
        )
    if args.json:
        print(
            json.dumps(
                {
                    "chips": args.chips,
                    "method": partition.method,
                    "part_sizes": [int(size) for size in partition.part_sizes()],
                    "halo_vertices": [int(count) for count in partition.halo_counts],
                    "cut_edges": int(partition.cut_edges),
                    "imbalance": partition.imbalance(),
                    "plans": [
                        json.loads(chip_plan.to_json()) for chip_plan in workload.chip_plans
                    ],
                },
                indent=2,
            )
        )
        return 0
    summary_rows = [
        {
            "chip": chip,
            "vertices": int(partition.part_sizes()[chip]),
            "halo_vertices": int(partition.halo_counts[chip]),
        }
        for chip in range(args.chips)
    ]
    print(
        format_table(
            summary_rows,
            title=(
                f"Partition: {graph.name} across {args.chips} chips "
                f"({partition.method}, {partition.cut_edges} cut edges, "
                f"imbalance {partition.imbalance():.2f})"
            ),
        )
    )
    for chip, chip_plan in enumerate(workload.chip_plans):
        print()
        print(
            format_table(
                chip_plan.op_rows(),
                title=f"Chip {chip} plan: {chip_plan.family.upper()} on {graph.name}",
            )
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import lint_paths, verify_all_plans

    run_lint = args.lint or not args.plans
    run_plans = args.plans or not args.lint

    findings = lint_paths(args.paths, root=".") if run_lint else []
    plan_rows = verify_all_plans() if run_plans else []
    bad_plans = [row for row in plan_rows if not row["ok"]]

    ok = not findings and not bad_plans
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok,
                    "lint": {"findings": [finding.to_dict() for finding in findings]}
                    if run_lint
                    else None,
                    "plans": plan_rows if run_plans else None,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if ok else 1

    if run_lint:
        for finding in findings:
            print(finding.describe())
        print(f"lint: {len(findings)} finding(s)")
    if run_plans:
        for row in bad_plans:
            for violation in row["violations"]:
                print(f"{row['family']}/{row['dataset']}: {violation}", file=sys.stderr)
        print(
            f"plans: {len(plan_rows)} family x dataset pair(s) verified, "
            f"{len(bad_plans)} with violations"
        )
    if not ok:
        print("repro check: FAILED", file=sys.stderr)
        return 1
    print("repro check: ok")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.scaleout import execute_scaleout

    graph, config = _load(args)
    result = execute_scaleout(
        GNNIEExecutor(config), lower(args.model, graph), graph, config, chips=args.chips
    )
    gnnie_label = "GNNIE" if args.chips == 1 else f"GNNIE x{args.chips}"
    platforms = [PyGCPUModel(), PyGGPUModel(), HyGCNModel(), AWBGCNModel(), EnGNModel()]
    rows = [
        {
            "platform": gnnie_label,
            "supported": True,
            "latency_ms": round(result.latency_seconds * 1e3, 4),
            "speedup": 1.0,
        }
    ]
    for platform in platforms:
        if not platform.supports(args.model):
            rows.append(
                {
                    "platform": platform.name,
                    "supported": False,
                    "latency_ms": None,
                    "speedup": None,
                }
            )
            continue
        entry = compare_against_platform(result, graph, platform)
        rows.append(
            {
                "platform": platform.name,
                "supported": True,
                "latency_ms": round(entry.baseline_latency_s * 1e3, 4),
                "speedup": round(entry.speedup, 2),
            }
        )
    if args.json:
        report = {"dataset": graph.name, "model": args.model.upper(), "rows": rows}
        if args.chips != 1:
            report["chips"] = args.chips
        print(json.dumps(report, indent=2))
        return 0
    table_rows = [
        {
            "platform": row["platform"],
            "latency_ms": row["latency_ms"] if row["supported"] else "unsupported",
            "speedup": row["speedup"] if row["supported"] else "-",
        }
        for row in rows
    ]
    print(
        format_table(table_rows, title=f"{args.model.upper()} on {graph.name}: GNNIE vs baselines")
    )
    return 0


def _cmd_designs(args: argparse.Namespace) -> int:
    graph, _ = _load(args)
    rows = []
    for name in ("A", "B", "C", "D", "E"):
        config = design_preset(name)
        result = GNNIEExecutor(config).execute(lower(args.model, graph), graph)
        rows.append(
            {
                "design": config.name,
                "total_macs": config.total_macs,
                "cycles": result.total_cycles,
                "latency_us": round(result.latency_seconds * 1e6, 2),
                "energy_uJ": round(result.energy_joules * 1e6, 2),
            }
        )
    print(format_table(rows, title=f"Design points A-E: {args.model.upper()} on {graph.name}"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    mechanisms = tuple(
        dict.fromkeys(name.strip() for name in args.mechanism.split(",") if name.strip())
    )
    if not mechanisms:
        print("no mechanisms given (use e.g. --mechanism victim,stream)", file=sys.stderr)
        return 2
    sizing = {
        knob: value
        for knob, value in (
            ("victim_entries", args.victim_entries),
            ("miss_entries", args.miss_entries),
            ("stream_buffers", args.stream_buffers),
            ("stream_depth", args.stream_depth),
        )
        if value is not None
    }
    try:
        _validate_ablation(mechanisms, sizing)
    except ValueError as error:
        print(f"invalid miss-path configuration: {error}", file=sys.stderr)
        return 2
    graph = build_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = AcceleratorConfig().resolve_input_buffer(graph.name)
    knobs = pricing_view(CacheKnobs, config, GNNIEExecutor.table)
    try:
        capacity, record_bytes = input_buffer_capacity(graph.adjacency, knobs, args.feature_length)
    except ValueError as error:
        print(f"invalid --feature-length: {error}", file=sys.stderr)
        return 2
    rows = miss_path_ablation_rows(
        graph.adjacency,
        capacity,
        policies=ID_ORDER_POLICIES if args.policy == "all" else [args.policy],
        dataset=graph.name,
        mechanisms=mechanisms,
        **sizing,
    )
    title = (
        f"Miss-path hierarchy on {graph.name} "
        f"(buffer capacity {capacity} vertices, record {record_bytes} B)"
    )
    print(format_table(rows, title=title))
    return 0


def _split_axis(value: str, *, all_values: Sequence[str], axis: str) -> list[str]:
    """Parse a comma-separated axis argument, expanding the 'all' shorthand."""
    if value.strip().lower() == "all":
        return list(all_values)
    names = [name.strip().lower() for name in value.split(",") if name.strip()]
    unknown = set(names) - set(all_values)
    if not names or unknown:
        raise ValueError(
            f"unknown {axis} {sorted(unknown) if unknown else value!r}; "
            f"known: {', '.join(all_values)}"
        )
    return names


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import geomean_table_rows

    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        datasets = _split_axis(args.datasets, all_values=dataset_names(), axis="datasets")
        models = _split_axis(args.models, all_values=list(MODEL_FAMILIES), axis="models")
        backends = _split_axis(args.backends, all_values=executor_names(), axis="backends")
        chips = [int(part) for part in args.chips.split(",") if part.strip()]
        if not chips or any(count < 1 for count in chips):
            raise ValueError("--chips must be a comma-separated list of integers >= 1")
        configs = (
            [design_preset(name) for name in args.designs.split(",") if name.strip()]
            if args.designs
            else None
        )
        retry = RetryPolicy(
            max_attempts=args.max_attempts if args.max_attempts is not None else 2,
            timeout_seconds=args.timeout,
            failed_rows=not args.strict,
        )
        if args.faults:
            from repro.faults import install_plan

            # Validate eagerly so a bad plan fails here, not inside a worker.
            from repro.faults import FaultPlan

            if args.faults.lstrip().startswith("{"):
                FaultPlan.from_json(args.faults)
            else:
                with open(args.faults) as handle:
                    FaultPlan.from_json(handle.read())
            install_plan(args.faults)
        store = ResultStore(args.store, resume=not args.no_resume)
    except (OSError, ValueError, KeyError) as error:
        print(str(error), file=sys.stderr)
        return 2
    matrix = ScenarioMatrix.build(
        datasets,
        models,
        backends=backends,
        configs=configs,
        scale=args.scale,
        seed=args.seed,
        chips=chips,
    )

    tracer = metrics = None
    if args.trace:
        from repro.obs import MetricsRegistry, Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()

    started = time.perf_counter()

    def progress(cell, row, done, total, cached, wall_s):
        if is_failed_row(row):
            status = f"failed ({row['error']['type']}, {row['attempts']} attempts)"
        else:
            status = "ok" if row["supported"] else "unsupported"
        status += " (resumed)" if cached else f" ({wall_s:.2f}s)"
        elapsed = time.perf_counter() - started
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total - done) / rate if rate > 0 else 0.0
        print(
            f"  [{done}/{total}] {cell.describe()}: {status} "
            f"| {rate:.1f} rows/s, eta {eta:.0f}s",
            file=sys.stderr,
        )

    try:
        summary = run_sweep(
            matrix,
            store=store,
            jobs=args.jobs,
            progress=progress,
            tracer=tracer,
            metrics=metrics,
            retry=retry,
        )
    except ValueError as error:  # e.g. an old-format store
        print(str(error), file=sys.stderr)
        return 2
    except SweepError as error:  # --strict with permanent failures
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            args.trace,
            tracer.records,
            track="pid",
            metrics=metrics,
            metadata={"command": "sweep", "jobs": args.jobs, "cells": summary.total},
        )
        print(f"fleet trace written to {args.trace}", file=sys.stderr)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2))
        return 0
    fault_note = ""
    if summary.failed or summary.retries or summary.timeouts or summary.pool_rebuilds:
        fault_note = (
            f", {summary.failed} failed [{summary.retries} retries, "
            f"{summary.timeouts} timeouts, {summary.pool_rebuilds} pool rebuilds]"
        )
    print(
        f"sweep: {summary.total} cells ({summary.executed} executed, "
        f"{summary.skipped} resumed, {summary.unsupported} unsupported"
        f"{fault_note}) "
        f"in {summary.wall_seconds:.2f}s ({summary.rows_per_second:.1f} rows/s) "
        f"-> {summary.store_path}"
    )
    rows = geomean_table_rows(summary.rows)
    if rows:
        print()
        print(format_table(rows, title="GNNIE geomean speedup / energy gain per backend"))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import os

    if not os.path.exists(args.store):
        print(f"no such store: {args.store}", file=sys.stderr)
        return 2
    action = {"verify": verify_store, "repair": repair_store, "compact": compact_store}[
        args.store_command
    ]
    report = action(args.store)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{report.action} {report.path}: {report.lines} line(s), "
            f"{report.rows} row(s) ({report.failed_rows} failed, "
            f"{report.duplicate_keys} duplicate key(s))"
        )
        for number, reason in report.corrupt:
            print(f"  corrupt line {number}: {reason}")
        if report.partial_tail:
            print("  partial tail (torn final write)")
        if report.removed_lines:
            print(f"  removed {report.removed_lines} line(s)")
        if report.quarantine_path:
            print(f"  quarantined evidence -> {report.quarantine_path}")
    if args.store_command == "verify":
        return 0 if report.clean else 1
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.analysis import tune_table_rows
    from repro.analysis.tune_report import tune_report
    from repro.tune import TuneSpec, run_tune

    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        spec = TuneSpec(
            dataset=args.dataset,
            family=args.model,
            scale=args.scale,
            seed=args.seed,
            generations=args.generations,
            population=args.population,
            mac_budget=args.mac_budget,
        )
        store = ResultStore(args.store, resume=not args.no_resume)
    except (ValueError, KeyError) as error:
        print(str(error), file=sys.stderr)
        return 2

    tracer = metrics = None
    if args.trace:
        from repro.obs import MetricsRegistry, Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()
    try:
        result = run_tune(
            spec,
            store=store,
            jobs=args.jobs,
            log=lambda line: print(line, file=sys.stderr),
            tracer=tracer,
            metrics=metrics,
        )
    except ValueError as error:  # e.g. an old-format store
        print(str(error), file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            args.trace,
            tracer.records,
            track="pid",
            metrics=metrics,
            metadata={"command": "tune", "dataset": spec.dataset, "family": spec.family},
        )
        print(f"tuning trace written to {args.trace}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(
        f"tune: {len(result.generations)} generations, "
        f"{result.evaluated_cells} unique cells "
        f"({result.executed_cells} executed, "
        f"{result.evaluated_cells - result.executed_cells} resumed) -> {result.store_path}"
    )
    report = tune_report(
        store, dataset=spec.dataset, family=spec.family, baseline=spec.baseline
    )
    rows = tune_table_rows(report)
    if rows:
        print()
        print(
            format_table(
                rows,
                title=f"Autotuned designs by β ({spec.family.upper()} on {spec.dataset}, "
                f"baseline {spec.baseline.name})",
            )
        )
    if result.best is not None:
        print(f"\nbest design: {result.best['name']} (β = {result.best['beta']:.4f})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
