"""Benchmark entry point: run one workload, check its outputs, print metrics.

Run from the repository root::

    python3 perfbench/run.py --workload ppi_full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one untraced cycle of passes and then one traced cycle,
and reports the per-layer metrics of the traced one.  ``--workload all``
runs every workload in its own process, so each peak RSS is that
workload's alone; with ``--trace 1`` it runs each one untraced, then
traced.

Standard output holds a human-readable table and, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the metric names of BENCHMARK.json, with units).  The exit
code is 0 only when every output check passed.  A full report, with the
spans of a traced run, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("ppi_full", "mac_sweep", "reddit_scaleout")

#: Unit of every metric the benchmark computes (BENCHMARK.json lists a subset).
UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "peak_rss_mb": "MB",
    "resume_s": "s",
    "failed_frac": "fraction",
    "datasets.build_s": "s",
    "graph.topology_s": "s",
    "sparse.features_s": "s",
    "datasets.vertices": "count",
    "datasets.edges": "count",
    "plan.lower_s": "s",
    "check.verify_s": "s",
    "check.verify_calls": "count",
    "cache.sim_s": "s",
    "cache.sims": "count",
    "cache.iterations": "count",
    "cache.rounds": "count",
    "cache.deadlocks": "count",
    "cache.refetch_ratio": "ratio",
    "cache.edges_per_s": "edges/s",
    "cache.memo_hits": "count",
    "cache.context_hits": "count",
    "mapping.weighting_s": "s",
    "mapping.flexible_mac_s": "s",
    "sim.aggregation_price_s": "s",
    "sim.execute_s": "s",
    "sim.pricing_s": "s",
    "baselines.execute_s": "s",
    "scaleout.partition_s": "s",
    "scaleout.execute_s": "s",
    "scaleout.halo_bytes": "bytes",
    "scaleout.chip_imbalance": "ratio",
    "sweep.cell_s": "s",
    "sweep.group_s": "s",
    "sweep.store_append_s": "s",
    "sweep.store_load_s": "s",
    "sweep.resume_s": "s",
    "sweep.cells_executed": "count",
    "sweep.cells_resumed": "count",
    "model.cycles": "cycles",
    "model.dram_bytes": "bytes",
    "model.energy_j": "J",
    "model.digest": "hash",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}

#: Per layer: the end-to-end metric it should move, and on which workload.
MOVES = {
    "datasets.build": "setup_s, all workloads (most on ppi_full, reddit_scaleout)",
    "graph.topology": "setup_s, all workloads",
    "sparse.features": "setup_s, all workloads",
    "plan.lower": "request_p50_s, requests_per_s on mac_sweep (negligible)",
    "check.verify": "request_p50_s, requests_per_s on mac_sweep (verifier memo)",
    "cache.sim": "request_p50_s, requests_per_s on ppi_full; reddit_scaleout chips=1",
    "mapping.weighting": "requests_per_s, request_p90_s on mac_sweep",
    "mapping.flexible_mac": "requests_per_s, request_p90_s on mac_sweep",
    "sim.aggregation_price": "requests_per_s, request_p90_s on mac_sweep",
    "sim.execute": "every request metric on every workload",
    "baselines.execute": "requests_per_s on mac_sweep",
    "scaleout.partition": "requests_per_s, request_p50_s on reddit_scaleout",
    "scaleout.execute": "requests_per_s, request_p50_s on reddit_scaleout",
    "sweep.group": "requests_per_s on mac_sweep",
    "sweep.store_append": "requests_per_s on mac_sweep",
    "sweep.store_load": "resume_s on mac_sweep",
}

#: Layers reported as inclusive host seconds of the traced cycle.
TIMED_LAYERS = tuple(MOVES)

#: Deterministic per-cycle counts the workloads tally, reported as they are.
COUNTED = (
    "datasets.vertices",
    "datasets.edges",
    "cache.sims",
    "cache.iterations",
    "cache.rounds",
    "cache.deadlocks",
    "cache.memo_hits",
    "cache.context_hits",
    "scaleout.halo_bytes",
    "scaleout.chip_imbalance",
    "sweep.cells_executed",
    "sweep.cells_resumed",
)

#: A traced run must attribute at least this share of its request loop.
MIN_COVERAGE = 0.9


def import_repro() -> None:
    """Put this checkout's sources first on the path and import them."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")


def benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(tally, import_s: float) -> dict:
    latencies = tally.latencies
    return {
        "setup_s": import_s + median(tally.builds_s),
        "requests_per_s": len(latencies) / tally.loop_s if tally.loop_s else 0.0,
        "request_p50_s": median(latencies),
        "request_p90_s": (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            if len(latencies) > 1 else median(latencies)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "resume_s": median(tally.resumes_s),
    }


def per_layer(traced, plain, recorder) -> tuple[dict, dict]:
    """Per-layer metrics of the traced cycle and the span table."""
    from workloads import model_summary

    table = recorder.layer_table()
    metrics = {
        f"{layer}_s": table.get(layer, {}).get("inclusive_s", 0.0) for layer in TIMED_LAYERS
    }
    counts = {name: 0 for name in COUNTED}
    for count in traced.counts:
        for name, value in count.items():
            counts[name] = counts.get(name, 0) + value
    cache_s = table.get("cache.sim", {}).get("inclusive_s", 0.0)
    covered, loop = recorder.coverage()
    metrics.update({name: counts[name] for name in COUNTED})
    metrics.update(
        {
            "check.verify_calls": table.get("check.verify", {}).get("calls", 0),
            "cache.refetch_ratio": (
                counts["cache.vertex_fetches"] / counts["cache.vertices"]
                if counts.get("cache.vertices") else 0.0
            ),
            "cache.edges_per_s": (
                counts.get("cache.edges_processed", 0) / cache_s if cache_s else 0.0
            ),
            "sim.pricing_s": metrics["sim.execute_s"] - metrics["cache.sim_s"],
            "sweep.cell_s": sum(traced.latencies),
            "sweep.resume_s": sum(traced.resumes_s),
            "trace.overhead_frac": traced.loop_s / plain.loop_s - 1.0,
            "trace.coverage_frac": covered / loop if loop else 0.0,
        }
    )
    metrics.update(model_summary([row for rows in traced.outputs for row in rows]))
    return metrics, table


def check_determinism(tally, outputs: list[list[tuple]], kinds: int) -> None:
    """Passes of one kind must model identical cycles, DRAM bytes and energy."""
    if any(rows != outputs[index % kinds] for index, rows in enumerate(outputs)):
        tally.fail("modeled cycles/DRAM/energy differ between passes of one kind")


def measure_untraced(workload, args, store_dir: Path, import_s: float):
    """End-to-end metrics of passes run with no instrumentation."""
    import workloads

    tally = workloads.measure(workload, args.seed, args.seconds, store_dir)
    check_determinism(tally, tally.outputs, workload.kinds)
    metrics = end_to_end(tally, import_s)
    return tally, metrics, [f"passes {tally.passes}, requests {len(tally.latencies)}"], {}


def measure_traced(workload, args, store_dir: Path):
    """Per-layer metrics of one traced cycle, after one untraced cycle."""
    import workloads
    from spans import SpanRecorder, instrument

    plain = workloads.measure(
        workload, args.seed, args.seconds, store_dir, passes=workload.kinds
    )
    recorder = SpanRecorder()
    tally = workloads.Tally()
    with instrument(recorder, workloads.trace_targets(tally)):
        workloads.measure(
            workload, args.seed, args.seconds, store_dir,
            passes=plain.passes, recorder=recorder, tally=tally,
        )
    check_determinism(tally, plain.outputs + tally.outputs, workload.kinds)
    metrics, table = per_layer(tally, plain, recorder)
    if metrics["trace.coverage_frac"] < MIN_COVERAGE:
        tally.fail(
            f"layer spans cover {metrics['trace.coverage_frac']:.3f} of the "
            f"request loop, below {MIN_COVERAGE}"
        )
    tally.attempted += plain.attempted
    tally.failures += plain.failures
    loop = recorder.coverage()[1]
    lines = [
        f"{'layer':24} {'incl s':>10} {'self s':>10} {'loop %':>7} {'calls':>7}  moves"
    ] + [
        f"{name:24} {row['inclusive_s']:10.4f} {row['self_s']:10.4f}"
        f" {100 * row['inclusive_s'] / loop:7.1f} {row['calls']:7d}  {MOVES.get(name, '')}"
        for name, row in sorted(table.items())
    ]
    return tally, metrics, lines, {"spans": recorder.as_records()}


def run_workload(args) -> int:
    import_repro()
    import workloads

    import_s = process_time()  # CPU seconds since the process started
    wanted = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    wrong_units = [entry["name"] for entry in wanted if UNITS.get(entry["name"]) != entry["unit"]]
    if wrong_units:
        raise SystemExit(f"perfbench: BENCHMARK.json units differ for {wrong_units}")
    workload = workloads.WORKLOADS[args.workload]()
    store_dir = OUT / f"stores-{os.getpid()}"
    store_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            measured = measure_traced(workload, args, store_dir)
        else:
            measured = measure_untraced(workload, args, store_dir, import_s)
        tally, metrics, table_lines, extra = measured
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    failed = min(len(tally.failures), tally.attempted)
    metrics["failed_frac"] = failed / tally.attempted if tally.attempted else 1.0
    correct = not tally.failures and tally.attempted > 0
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics missing {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("modeled numbers are unvalidated against silicon (see perfbench/DESIGN.md)")
    for line in table_lines:
        print(line)
    for name in sorted(metrics):
        print(f"{name:28} {metrics[name]!r:>24} {UNITS[name]}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": metrics,
        "failures": tally.failures,
        "latencies_s": tally.latencies,
        **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report) + "\n"
    )
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import_repro()
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in range(args.trace + 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            lines = completed.stdout.strip().splitlines() or [""]
            print("\n".join(lines[:-1]))
            status = status or completed.returncode
            results[f"{name}/trace{trace}"] = (
                json.loads(lines[-1]) if lines[-1].startswith("{") else None
            )
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
