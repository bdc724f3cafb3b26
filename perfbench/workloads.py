"""The benchmark's workloads: what one pass builds, requests and checks.

Every workload is a closed loop with one client and no worker pool.  A
*pass* starts cold: it builds fresh ``Graph`` objects (the set-up sample)
and a fresh result store, then issues its requests one after another.
:func:`measure` repeats passes until the request loop has run for the
requested time, and at least :data:`MIN_PASSES` times, always ending on a
whole *cycle*: one pass of each kind a workload defines.  See DESIGN.md
for why each workload exists and how the seed enters it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import process_time as clock

import repro.baselines  # noqa: F401  (registers the baseline executors)
from repro import scaleout
from repro.baselines.platform import PlatformModel
from repro.check import verifier
from repro.datasets import synthetic
from repro.datasets.registry import dataset_spec
from repro.graph import generators
from repro.graph.partition import PARTITION_METHODS
from repro.hw.config import AcceleratorConfig
from repro.mapping import binning, weighting
from repro.models.zoo import MODEL_FAMILIES, model_config
from repro.obs.metrics import MetricsRegistry
from repro.plan import lowering
from repro.plan.executor import executor_names
from repro.plan.ir import AggregationOp
from repro.scaleout import engine
from repro.sim import aggregation_sim
from repro.sim.design_space import sweep_mac_allocations
from repro.sim.gnnie_executor import GNNIEExecutor
from repro.sparse import feature_matrix
from repro.sweep import runner, worker
from repro.sweep.matrix import ScenarioMatrix, derive_seed
from repro.sweep.store import ResultStore, canonical_row, is_failed_row

from spans import LOOP, SpanRecorder, Target

#: Passes every run makes at least, so set-up is timed more than once.
MIN_PASSES = 2

#: Dataset seed of the single-graph workloads (see DESIGN.md, "Seeds").
DATASET_SEED = 0


@dataclass
class Tally:
    """Everything one run of a workload measured and checked."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    builds_s: list[float] = field(default_factory=list)
    resumes_s: list[float] = field(default_factory=list)
    #: Per pass: sorted (request, cycles, DRAM bytes, energy) of every
    #: request; passes of one kind must agree exactly.
    outputs: list[list[tuple]] = field(default_factory=list)
    #: Per pass: deterministic per-layer counts.
    counts: list[Counter] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.builds_s)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_result(self, what: str, cycles: float, energy_j: float) -> None:
        if not all(math.isfinite(value) and value > 0 for value in (cycles, energy_j)):
            self.fail(f"{what}: non-positive or non-finite cycles={cycles} energy={energy_j}")


def model_summary(entries: list[tuple]) -> dict:
    """Totals and a canonical hash over (request, cycles, DRAM bytes, energy)."""
    entries = sorted(entries)
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    return {
        "model.cycles": sum(entry[1] for entry in entries),
        "model.dram_bytes": sum(entry[2] for entry in entries),
        "model.energy_j": math.fsum(entry[3] for entry in entries),
        # 48 bits, so the value survives a JSON float exactly.
        "model.digest": int(digest[:12], 16),
    }


def cache_keys(plan, tag) -> set[tuple]:
    """Cache simulations a plan requests: one per adjacency it aggregates
    over, sized by the first aggregation op on it (the executor's
    first-op-wins contract), tagged with whatever else keys the run."""
    first: dict = {}
    for layer in plan.layers:
        for op in layer.ops:
            if isinstance(op, AggregationOp):
                first.setdefault(op.adjacency, op.width)
    return {(tag, adjacency, width) for adjacency, width in first.items()}


def check_cold_start(tally: Tally, metrics: MetricsRegistry, expected: set) -> None:
    """Every distinct cache key of the pass ran exactly one simulation."""
    runs = metrics.counter("executor.cache_sim.runs").value
    if runs != len(expected):
        tally.fail(f"cold start: {runs} cache simulations for {len(expected)} distinct keys")
    counts = tally.counts[-1]
    counts["cache.memo_hits"] += metrics.counter("executor.cache_sim.memo_hits").value
    counts["cache.context_hits"] += metrics.counter("executor.cache_sim.context_hits").value


def optional_span(recorder: SpanRecorder | None, name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


class RequestLoop:
    """Closed-loop single-graph requests that each end by storing a row.

    ``request(graph, item, metrics, expected)`` returns ``(row, result)``
    and adds the cache keys it requested to ``expected``.  The row is
    appended to the pass's store and, after the loop, must be served back
    byte-identical by a reopened store (the resume check).
    """

    name = ""
    #: The requests of each kind of pass, in order (fixed: see DESIGN.md,
    #: "Seeds"); pass ``i`` runs ``PASSES[i % len(PASSES)]``.
    PASSES: tuple[tuple, ...] = ()

    @property
    def kinds(self) -> int:
        return len(self.PASSES)

    def build(self, seed: int) -> dict:
        raise NotImplementedError

    def request(self, graph, item, metrics: MetricsRegistry, expected: set):
        raise NotImplementedError

    def after_loop(self, graph, results: dict, tally: Tally) -> None:
        """Pass-level output checks run outside the timed loop."""

    def run_pass(self, index, graphs, seed, tally, recorder, store_path: Path) -> None:
        (graph,) = graphs.values()
        metrics = MetricsRegistry()
        expected: set = set()
        rows: dict[str, dict] = {}
        results: dict = {}
        entries = []
        store = ResultStore(store_path)
        start = clock()
        with optional_span(recorder, LOOP):
            for item in self.PASSES[index % self.kinds]:
                tally.attempted += 1
                began = clock()
                try:
                    with optional_span(recorder, "request"):
                        row, result = self.request(graph, item, metrics, expected)
                        store.append(row)
                except Exception as error:  # a failed request is counted, not fatal
                    tally.fail(f"{self.name} {item}: {type(error).__name__}: {error}")
                    continue
                tally.latencies.append(clock() - began)
                rows[row["key"]] = row
                results[item] = result
                values = row["metrics"]
                tally.check_result(row["key"], values["cycles"], values["energy_joules"])
                entries.append(
                    (row["key"], values["cycles"], values["dram_bytes"], values["energy_joules"])
                )
        tally.loop_s += clock() - start
        check_cold_start(tally, metrics, expected)
        began = clock()
        with optional_span(recorder, "resume"):
            reopened = ResultStore(store_path)
            served = {key: reopened.get(key) for key in rows}
        tally.resumes_s.append(clock() - began)
        stale = [
            key for key, row in served.items()
            if row is None or canonical_row(row) != canonical_row(rows[key])
        ]
        if stale:
            tally.fail(f"resume: {len(stale)} stored row(s) missing or changed")
        counts = tally.counts[-1]
        counts["sweep.cells_executed"] += len(rows)
        counts["sweep.cells_resumed"] += len(served) - len(stale)
        counts["datasets.vertices"] += graph.num_vertices
        counts["datasets.edges"] += graph.num_edges
        self.after_loop(graph, results, tally)
        tally.outputs.append(sorted(entries))


def result_row(key: str, result) -> dict:
    return {
        "key": key,
        "metrics": {
            "cycles": int(result.total_cycles),
            "dram_bytes": int(result.total_dram_bytes),
            "energy_joules": float(result.energy_joules),
        },
    }


class PPIFull(RequestLoop):
    """Full-scale PPI: one user-path inference per request."""

    name = "ppi_full"
    #: (family, γ): the paper's default γ=5 on GCN plus both ends of the
    #: Fig. 11 range, split into two passes of about equal cost so that a
    #: run builds the graph twice without running every request twice.
    #: GCN and GAT never share a γ, so no two requests share a cache key.
    PASSES = ((("gcn", 5),), (("gat", 2), ("graphsage", 8)))

    def build(self, seed):
        return {"ppi": synthetic.build_dataset("ppi", scale=1.0, seed=DATASET_SEED)}

    def request(self, graph, item, metrics, expected):
        family, gamma = item
        plan = lowering.lower(family, graph)
        verifier.verify_plan(plan)
        config = replace(AcceleratorConfig(), gamma=gamma)
        result = GNNIEExecutor(config, metrics=metrics).execute(plan, graph)
        expected |= cache_keys(plan, gamma)
        return result_row(f"{family}-gamma{gamma}", result), result


class RedditScaleout(RequestLoop):
    """Reddit at 0.05 scale: GCN across 1–16 chips per request."""

    name = "reddit_scaleout"
    PASSES = (
        tuple((chips, method) for chips in (1, 2, 4, 8, 16) for method in PARTITION_METHODS),
    )

    def build(self, seed):
        return {"reddit": synthetic.build_dataset("reddit", scale=0.05, seed=DATASET_SEED)}

    def request(self, graph, item, metrics, expected):
        chips, method = item
        plan = lowering.lower("gcn", graph)
        verifier.verify_plan(plan)
        result = scaleout.execute_scaleout(
            GNNIEExecutor(metrics=metrics), plan, graph, chips=chips, method=method
        )
        if chips == 1:
            # chips=1 is the plain execute on the parent graph: one key,
            # whichever partition method asked for it.
            expected |= cache_keys(plan, "parent")
        else:
            # Every non-empty chip simulates its own induced subgraph.
            expected |= {
                (chips, method, chip)
                for chip, cycles in enumerate(result.chip_cycles)
                if cycles > 0
            }
        row = result_row(f"gcn-x{chips}-{method}", result)
        if chips > 1:
            row["metrics"]["halo_bytes"] = int(result.halo_bytes)
            row["metrics"]["chip_imbalance"] = float(result.chip_imbalance)
        return row, result

    def after_loop(self, graph, results, tally):
        counts = tally.counts[-1]
        multi_chip = [result for (chips, _), result in results.items() if chips > 1]
        counts["scaleout.halo_bytes"] += sum(int(result.halo_bytes) for result in multi_chip)
        if multi_chip:
            counts["scaleout.chip_imbalance"] += math.fsum(
                float(result.chip_imbalance) for result in multi_chip
            ) / len(multi_chip)
        # execute_scaleout(chips=1) must equal the backend's plain execute.
        plain = GNNIEExecutor().execute(lowering.lower("gcn", graph), graph)
        reference = (plain.total_cycles, plain.total_dram_bytes, plain.energy_joules)
        for (chips, method), result in results.items():
            if chips == 1 and (
                result.total_cycles, result.total_dram_bytes, result.energy_joules
            ) != reference:
                tally.fail(f"scale-out chips=1 ({method}) differs from plain execute")


class MacSweep:
    """Cold MAC-allocation sweep into a fresh store, then a resume pass."""

    name = "mac_sweep"
    kinds = 1
    DATASETS = ("cora", "citeseer", "pubmed")

    def __init__(self) -> None:
        # Plans depend on dataset shapes only, so the cache keys the sweep
        # requests are known before any graph is built.
        self.expected = set()
        for dataset in self.DATASETS:
            spec = dataset_spec(dataset)
            for family in MODEL_FAMILIES:
                plan = lowering.lower_model(
                    model_config(family), spec.feature_length, max(spec.num_labels, 2)
                )
                self.expected |= cache_keys(plan, dataset)

    def build(self, seed):
        return {
            name: synthetic.build_dataset(name, scale=1.0, seed=derive_seed(seed, name))
            for name in self.DATASETS
        }

    def matrix(self, seed) -> ScenarioMatrix:
        return ScenarioMatrix.build(
            self.DATASETS,
            MODEL_FAMILIES,
            backends=executor_names(),
            configs=sweep_mac_allocations(mac_budget=1280),
            scale=1.0,
            seed=seed,
        )

    def run_pass(self, index, graphs, seed, tally, recorder, store_path: Path) -> None:
        for name, graph in graphs.items():
            # The sweep picks up exactly these freshly built graphs.
            worker.prime_graph_memo(name, 1.0, derive_seed(seed, name), graph)
        matrix = self.matrix(seed)
        metrics = MetricsRegistry()
        cells: list[float] = []

        def progress(cell, row, done, total, cached, wall_s):
            # Cells of one (dataset, family) group finish together, so only
            # the runner's own per-cell timing (wall clock) isolates a cell.
            if not cached:
                cells.append(wall_s)

        start = clock()
        with optional_span(recorder, LOOP):
            summary = runner.run_sweep(
                matrix, store=ResultStore(store_path), jobs=1, progress=progress,
                metrics=metrics,
            )
        tally.loop_s += clock() - start
        tally.attempted += summary.total
        tally.latencies.extend(cells)
        if summary.total != len(matrix) or len(summary.rows) != len(matrix):
            tally.fail(f"sweep landed {len(summary.rows)} rows for {len(matrix)} cells")
        entries = []
        for row in summary.rows:
            if is_failed_row(row):
                tally.fail(f"failed row {row['key']}: {row.get('error')}")
                continue
            values = row["metrics"]
            if not row["supported"]:
                continue
            if "cycles" in values:
                tally.check_result(row["key"], values["cycles"], values["energy_joules"])
            else:
                tally.check_result(row["key"], values["latency_seconds"], values["energy_joules"])
            entries.append(
                (row["key"], values.get("cycles", 0), values.get("dram_bytes", 0),
                 values["energy_joules"])
            )
        check_cold_start(tally, metrics, self.expected)

        began = clock()
        with optional_span(recorder, "resume"):
            resumed = runner.run_sweep(matrix, store=ResultStore(store_path), jobs=1)
        tally.resumes_s.append(clock() - began)
        if resumed.executed != 0:
            tally.fail(f"resume executed {resumed.executed} cells")
        if [canonical_row(row) for row in resumed.rows] != [
            canonical_row(row) for row in summary.rows
        ]:
            tally.fail("resume returned rows that differ from the first pass")
        counts = tally.counts[-1]
        counts["sweep.cells_executed"] += summary.executed
        counts["sweep.cells_resumed"] += resumed.skipped
        counts["datasets.vertices"] += sum(graph.num_vertices for graph in graphs.values())
        counts["datasets.edges"] += sum(graph.num_edges for graph in graphs.values())
        tally.outputs.append(sorted(entries))


WORKLOADS = {workload.name: workload for workload in (PPIFull, MacSweep, RedditScaleout)}


def measure(
    workload,
    seed: int,
    seconds: float,
    store_dir: Path,
    *,
    passes: int | None = None,
    recorder: SpanRecorder | None = None,
    tally: Tally | None = None,
) -> Tally:
    """Run cold passes until ``seconds`` of request loop (or ``passes``)."""
    tally = tally if tally is not None else Tally()

    def more() -> bool:
        if passes is not None:
            return tally.passes < passes
        return (
            tally.passes % workload.kinds != 0
            or tally.passes < MIN_PASSES
            or tally.loop_s < seconds
        )

    while more():
        gc.collect()
        tally.counts.append(Counter())
        began = clock()
        with optional_span(recorder, "setup"):
            graphs = workload.build(seed)
        tally.builds_s.append(clock() - began)
        index = tally.passes - 1
        store_path = store_dir / f"{workload.name}-pass{index}.jsonl"
        workload.run_pass(index, graphs, seed, tally, recorder, store_path)
        store_path.unlink(missing_ok=True)
        del graphs
    return tally


def trace_targets(tally: Tally) -> list[Target]:
    """The public entry point behind every per-layer metric."""

    def observe_cache(args, kwargs, result):
        adjacency, config = args[0], args[1]
        counts = tally.counts[-1]
        counts["cache.sims"] += 1
        counts["cache.iterations"] += result.num_iterations
        counts["cache.rounds"] += result.num_rounds
        counts["cache.deadlocks"] += result.deadlock_events
        counts["cache.vertex_fetches"] += result.vertex_fetches
        counts["cache.vertices"] += adjacency.num_vertices
        counts["cache.edges_processed"] += result.total_edges_processed
        if config.enable_degree_aware_caching and (
            2 * result.total_edges_processed != adjacency.num_edges
        ):
            tally.fail(
                f"cache simulation processed {result.total_edges_processed} edges "
                f"of a graph with {adjacency.num_edges // 2} undirected edges"
            )

    return [
        Target("datasets.build", synthetic, "build_dataset"),
        Target("graph.topology", generators, "power_law_graph"),
        Target("graph.topology", generators, "community_graph"),
        Target("sparse.features", feature_matrix, "generate_sparse_features"),
        Target("plan.lower", lowering, "lower_model"),
        Target("check.verify", verifier, "verify_plan"),
        Target("cache.sim", aggregation_sim, "run_cache_simulation", observe_cache),
        Target("mapping.weighting", weighting, "schedule_weighting"),
        Target("mapping.flexible_mac", binning, "flexible_mac_assignment"),
        Target("sim.aggregation_price", aggregation_sim, "aggregation_phase_from_cache"),
        Target("sim.execute", GNNIEExecutor, "execute"),
        Target("baselines.execute", PlatformModel, "execute"),
        Target("scaleout.partition", engine, "partition_workload"),
        Target("scaleout.execute", engine, "execute_scaleout"),
        Target("sweep.group", worker, "run_batch_timed"),
        Target("sweep.store_append", ResultStore, "append"),
        Target("sweep.store_load", ResultStore, "__init__"),
    ]
