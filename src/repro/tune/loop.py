"""Generation-based closed-loop autotuner over the scenario-sweep fleet.

:func:`run_tune` turns the repo's sweep subsystem into a search engine,
the offline analogue of AWB-GCN's runtime autotuning (Geng et al., MICRO
2020): instead of enumerating a fixed configuration grid, each generation

1. **sweeps** the candidate population through
   :func:`repro.sweep.run_sweep` into the resumable
   :class:`~repro.sweep.store.ResultStore` (cells whose key the store
   already holds are served for free),
2. **aggregates** the rows evaluated so far with
   :mod:`repro.analysis.sweep_aggregate` — the latency/area Pareto front
   and β versus the baseline design,
3. **proposes** the next generation by mutating the Pareto survivors
   (plus the best-β elite) with
   :class:`~repro.tune.proposer.ParetoMutationProposer`.

Determinism contract
--------------------
Proposals are a pure function of the spec and the evaluated rows: the
per-generation RNG is seeded from ``(spec.seed, generation, attempt)``, and
rows are themselves pure functions of their cells.  A killed tuning run
re-launched against the same store therefore re-proposes the identical
generations, every cell key is already present, and ``run_sweep`` serves
all of them from disk — zero re-simulated cells, identical final report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.hw.config import AcceleratorConfig, design_preset
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.sim.design_space import DesignPoint, pareto_front
from repro.sweep.matrix import DatasetCase, ScenarioMatrix, SweepCell
from repro.sweep.runner import run_sweep
from repro.sweep.store import ResultStore, is_failed_row
from repro.tune.proposer import ParetoMutationProposer

__all__ = ["TuneSpec", "GenerationReport", "TuneResult", "run_tune"]

#: Extra proposal rounds per generation when deduplication thins a batch.
_FILL_ATTEMPTS = 5


@dataclass(frozen=True)
class TuneSpec:
    """One tuning problem: the workload plus the search's fixed parameters.

    The tuned backend is always GNNIE: the baseline platforms model fixed
    published silicon and ignore :class:`AcceleratorConfig`.
    """

    dataset: str
    family: str = "gcn"
    scale: float | None = None
    #: Base seed — derives the dataset seed (via the scenario matrix) and
    #: every generation's proposer RNG.
    seed: int = 0
    generations: int = 4
    population: int = 6
    mac_budget: int = 1280
    #: β reference design, evaluated as part of generation 0.
    baseline: AcceleratorConfig = field(default_factory=lambda: design_preset("A"))
    #: Starting elites evaluated alongside the baseline in generation 0.
    #: Defaults to the paper's hand-picked flexible-MAC design, so the tuner
    #: starts from (and must improve on, never lose) the published point.
    seed_configs: tuple[AcceleratorConfig, ...] = field(
        default_factory=lambda: (design_preset("E"),)
    )

    def __post_init__(self) -> None:
        # Normalize the axis names like ScenarioMatrix.build does, so a
        # mixed-case spec hashes to the same cells (and filters the same
        # report rows) as its lowercase twin.
        object.__setattr__(self, "dataset", self.dataset.lower())
        object.__setattr__(self, "family", self.family.lower())
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.population < 1:
            raise ValueError("population must be >= 1")


@dataclass(frozen=True)
class GenerationReport:
    """Accounting for one generation of the loop."""

    index: int
    #: Unique cells this generation proposed (after deduplication).
    cells: int
    #: Cells actually simulated vs served from the store.
    executed: int
    resumed: int
    #: Best β across everything evaluated so far (None until a design adds
    #: MACs over the baseline).
    best_beta: float | None
    best_name: str | None
    pareto_size: int

    def as_dict(self) -> dict:
        return {
            "generation": self.index,
            "cells": self.cells,
            "executed": self.executed,
            "resumed": self.resumed,
            "best_beta": self.best_beta,
            "best_name": self.best_name,
            "pareto_size": self.pareto_size,
        }


@dataclass
class TuneResult:
    """Outcome of one tuning run."""

    spec: TuneSpec
    generations: list[GenerationReport]
    #: Unique cells this run evaluated (simulated or store-served).
    evaluated_cells: int
    #: Cells actually simulated by this run (0 on a clean resume).
    executed_cells: int
    best: dict | None
    pareto: list[dict]
    store_path: str | None

    def as_dict(self) -> dict:
        return {
            "dataset": self.spec.dataset,
            "family": self.spec.family,
            "backend": "gnnie",
            "scale": self.spec.scale,
            "seed": self.spec.seed,
            "mac_budget": self.spec.mac_budget,
            "generations": [generation.as_dict() for generation in self.generations],
            "evaluated_cells": self.evaluated_cells,
            "executed_cells": self.executed_cells,
            "best": self.best,
            "pareto": self.pareto,
            "store": self.store_path,
        }


def _cells_for(spec: TuneSpec, configs: Sequence[AcceleratorConfig]) -> list[SweepCell]:
    """Expand candidate configurations into sweep cells (shared seed rules)."""
    matrix = ScenarioMatrix(
        datasets=(DatasetCase(spec.dataset, scale=spec.scale),),
        families=(spec.family,),
        backends=("gnnie",),
        configs=tuple(configs),
        seed=spec.seed,
    )
    return matrix.cells()


def _claim_fresh(
    spec: TuneSpec, configs: Sequence[AcceleratorConfig], taken: set[str]
) -> list[SweepCell]:
    """Cells for the candidates whose key this run has not already claimed."""
    fresh: list[SweepCell] = []
    for cell in _cells_for(spec, configs):
        key = cell.key()
        if key in taken:
            continue
        taken.add(key)
        fresh.append(cell)
    return fresh


def _survivors(
    points: Sequence[DesignPoint], baseline: AcceleratorConfig
) -> tuple[list[DesignPoint], int, float | None, str | None]:
    """Pareto front plus the best-β elite, the front size, and the best β."""
    front = pareto_front(list(points))
    reference = next((p for p in points if p.config == baseline), None)
    best_beta: float | None = None
    best_point: DesignPoint | None = None
    if reference is not None:
        for point in points:
            beta = point.beta_versus(reference)
            if beta == beta and (best_beta is None or beta > best_beta):  # not NaN
                best_beta = beta
                best_point = point
    survivors = list(front)
    if best_point is not None and all(s.config != best_point.config for s in survivors):
        survivors.append(best_point)
    return survivors, len(front), best_beta, best_point.name if best_point else None


def run_tune(
    spec: TuneSpec,
    *,
    store: ResultStore | None = None,
    jobs: int = 1,
    progress=None,
    log: Callable[[str], None] | None = None,
    tracer=None,
    metrics=None,
    retry=None,
) -> TuneResult:
    """Run the closed sweep → aggregate → propose loop.

    Args:
        spec: The tuning problem (workload, generations, population, budget).
        store: Resumable result store shared with ``repro sweep``; cells the
            store already holds are never re-simulated.  ``None`` keeps
            results in memory.
        jobs: Worker processes per generation sweep (forwarded to
            :func:`~repro.sweep.run_sweep`).
        progress: Per-cell progress callback, forwarded to ``run_sweep``.
        log: Optional line sink for per-generation summaries (the CLI passes
            stderr).
        tracer: Optional :class:`repro.obs.Tracer`; each generation becomes
            a span enclosing its sweep's merged fleet timeline.  Tracing
            never changes the search: proposals read rows, never wall time.
        metrics: Optional :class:`repro.obs.MetricsRegistry` receiving the
            loop counters (``tune.proposals``, ``tune.dedup_skips``,
            ``tune.generations``, the ``tune.pareto_size`` gauge) on top of
            the sweep counters each generation records.
        retry: Optional :class:`~repro.sweep.RetryPolicy` forwarded to each
            generation's ``run_sweep``.  Cells that fail permanently land as
            ``failed`` rows; the search skips them (a failed candidate is
            simply never a survivor) instead of dying mid-loop.

    Returns:
        A :class:`TuneResult`; ``best`` is the highest-β evaluated design.
    """
    if store is None:
        store = ResultStore(None)
    proposer = ParetoMutationProposer(mac_budget=spec.mac_budget)
    tracer = tracer or NULL_TRACER
    metrics = metrics or NULL_METRICS

    from repro.analysis.sweep_aggregate import beta_rows, design_points_from_rows

    taken: set[str] = set()
    rows_by_key: dict[str, dict] = {}
    reports: list[GenerationReport] = []
    executed_total = 0

    # Generation 0: the β baseline plus the seed elites.
    population = _claim_fresh(spec, (spec.baseline, *spec.seed_configs), taken)

    for generation in range(spec.generations):
        if not population:
            if log is not None:
                log(f"tune: generation {generation}: search exhausted, stopping early")
            break
        with tracer.span(
            f"generation{generation}",
            category="tune",
            generation=generation,
            population=len(population),
        ) as generation_span:
            summary = run_sweep(
                population,
                store=store,
                jobs=jobs,
                progress=progress,
                tracer=tracer,
                metrics=metrics,
                retry=retry,
            )
        metrics.counter("tune.generations").inc()
        executed_total += summary.executed
        for row in summary.rows:
            # Permanently-failed cells carry no metrics; the search treats
            # them as evaluated (never re-proposed) but never aggregates
            # them into the Pareto front or β table.
            if is_failed_row(row):
                metrics.counter("tune.failed_rows").inc()
                continue
            rows_by_key[row["key"]] = row

        points = design_points_from_rows(rows_by_key.values())
        survivors, pareto_size, best_beta, best_name = _survivors(points, spec.baseline)
        metrics.gauge("tune.pareto_size").set(pareto_size)
        generation_span.set(
            executed=summary.executed,
            resumed=summary.skipped,
            pareto_size=pareto_size,
            best_beta=best_beta,
        )
        reports.append(
            GenerationReport(
                index=generation,
                cells=summary.total,
                executed=summary.executed,
                resumed=summary.skipped,
                best_beta=best_beta,
                best_name=best_name,
                pareto_size=pareto_size,
            )
        )
        if log is not None:
            beta_text = "n/a" if best_beta is None else f"{best_beta:.4f}"
            log(
                f"tune: generation {generation}: {summary.total} cells "
                f"({summary.executed} executed, {summary.skipped} resumed), "
                f"best β {beta_text} ({best_name}), "
                f"pareto {pareto_size}"
            )

        if generation == spec.generations - 1:
            break
        # Propose the next generation; deduplication may thin a batch, so
        # re-draw with a derived RNG until the population fills (bounded).
        population = []
        for attempt in range(_FILL_ATTEMPTS):
            if len(population) >= spec.population:
                break
            rng = random.Random(f"{spec.seed}:{generation}:{attempt}")
            batch = proposer.propose(
                survivors, rng=rng, count=spec.population - len(population)
            )
            fresh = _claim_fresh(spec, batch, taken)
            metrics.counter("tune.proposals").inc(len(batch))
            metrics.counter("tune.dedup_skips").inc(len(batch) - len(fresh))
            population.extend(fresh)

    rows = list(rows_by_key.values())
    betas = beta_rows(rows, baseline=spec.baseline) if rows else []
    best = next((entry for entry in betas if entry["beta"] is not None), None)
    pareto = [
        {
            "name": point.name,
            "total_macs": point.total_macs,
            "cycles": point.cycles,
            "area_mm2": point.area_mm2,
            "latency_seconds": point.latency_seconds,
        }
        for point in pareto_front(design_points_from_rows(rows))
    ]
    return TuneResult(
        spec=spec,
        generations=reports,
        evaluated_cells=len(rows_by_key),
        executed_cells=executed_total,
        best=best,
        pareto=pareto,
        store_path=str(store.path) if store.path is not None else None,
    )
