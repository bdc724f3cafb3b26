"""Supervised scenario-sweep runner: fan cells out, survive the failures.

:func:`run_sweep` is the single entry point every exploration path routes
through — the ``repro sweep`` CLI, the design-space wrappers in
:mod:`repro.sim.design_space`, the figure benchmarks' full evaluation
matrix.  It expands a :class:`~repro.sweep.matrix.ScenarioMatrix` (or takes
pre-built cells), skips cells whose keys are already in the
:class:`~repro.sweep.store.ResultStore` (resume), executes the remainder —
inline for ``jobs=1``, across a ``ProcessPoolExecutor`` otherwise — and
appends each row to the store the moment it completes, so progress survives
a kill at any point.

Since the fault-tolerance layer, the fleet is *supervised* by a
:class:`RetryPolicy`:

* failed work items are retried with exponential backoff and deterministic
  jitter, up to ``max_attempts``;
* a (dataset, scale, seed, family) group that exhausts its attempts
  degrades to single cells — each cell retries alone, as a batch of one, so
  one poisoned cell cannot take its whole group down with it;
* a worker crash (``BrokenProcessPool``) rebuilds the pool and requeues
  every in-flight group — crashes are counted separately from ordinary
  failures (bounded by :data:`MAX_DISRUPTIONS`) so a crashing neighbour
  never burns an innocent group's retry budget;
* a group that exceeds ``timeout_seconds`` is charged a failed attempt, its
  hung worker is terminated, and the pool is rebuilt;
* cells that still fail land in the store as explicit ``failed`` rows
  (error class/message, attempt count — see
  :func:`~repro.sweep.worker.failed_row`), so a sweep always completes and
  a later fault-free run re-executes exactly the failed cells.  With
  ``RetryPolicy(failed_rows=False)`` the sweep instead raises one
  :class:`SweepError` carrying *every* group failure and the count of rows
  that did land.

Results are returned in deterministic cell order regardless of the order
workers finish in; a sweep's summary is a pure function of its matrix,
store and (injected) faults, never of scheduling.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.sweep.matrix import ScenarioMatrix, SweepCell
from repro.sweep.store import ResultStore, is_failed_row
from repro.sweep.worker import ROW_FORMAT, failed_row, run_batch_timed, seed_graph_overrides

__all__ = ["RetryPolicy", "SweepError", "SweepSummary", "run_sweep"]

#: Progress callback signature:
#: (cell, row, completed_count, total_count, cached, wall_seconds) —
#: ``cached`` is True for cells served from the result store (resume)
#: instead of executed, so a ``done/total`` counter advances smoothly
#: across both paths; ``wall_seconds`` is the cell's host execution time
#: (0.0 for cached cells), which is what the CLI's live rate/ETA reads.
ProgressCallback = Callable[[SweepCell, dict, int, int, bool, float], None]

#: Delay before a work item's second attempt; it doubles per further
#: attempt up to :data:`BACKOFF_MAX_SECONDS`.
BACKOFF_SECONDS = 0.05
BACKOFF_MAX_SECONDS = 2.0

#: Bound on *uncharged* infrastructure failures (pool-breaking crashes) one
#: work item may suffer before it is treated as exhausted — the culprit of
#: a repeating crash loop ends here; innocent neighbours requeue without
#: losing budget.
MAX_DISRUPTIONS = 6


def backoff_delay(key: str, attempt: int) -> float:
    """Backoff before retry number ``attempt`` of the item keyed ``key``.

    Exponential in the attempt count, capped, with jitter in [0.5, 1.0)×
    derived from a hash of (key, attempt) — deterministic across runs
    (replayable chaos), decorrelated across a fleet's items.
    """
    base = min(BACKOFF_SECONDS * 2 ** (attempt - 1), BACKOFF_MAX_SECONDS)
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2**64
    return base * (0.5 + jitter / 2)


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised fleet treats failing work items.

    Failed items back off by :func:`backoff_delay`, and a group that
    exhausts its attempts retries its cells one at a time to isolate the
    poisoned cell.

    Args:
        max_attempts: Executions a work item is charged before it is
            exhausted (a group then degrades to single cells; a single cell
            then fails permanently).
        timeout_seconds: Wall-clock budget per submitted group under a
            worker pool; an expired group's worker is terminated, the pool
            rebuilt, and the group charged one failed attempt.  ``None``
            disables timeouts.  Inline (``jobs=1``) execution cannot be
            preempted, so timeouts only apply to pool runs.
        failed_rows: When ``True`` (the default), permanently-failed cells
            land as explicit ``failed`` store rows and the sweep completes;
            when ``False``, the sweep raises :class:`SweepError` after the
            drain, reporting every failure.
    """

    max_attempts: int = 2
    timeout_seconds: float | None = None
    failed_rows: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")


class SweepError(RuntimeError):
    """All permanent failures of one sweep, raised after the full drain.

    Unlike the old first-error re-raise, every failed group is reported
    (``failures``: one record per group with its cells, error class/message
    and attempt count) along with how many rows *did* land in the store
    before the error surfaced (``rows_landed`` — the resume guarantee).
    """

    def __init__(self, failures: list[dict], rows_landed: int) -> None:
        self.failures = failures
        self.rows_landed = rows_landed
        cells = sum(len(entry["keys"]) for entry in failures)
        details = "; ".join(
            f"{entry['cells'][0]}"
            + (f" (+{len(entry['cells']) - 1} more)" if len(entry["cells"]) > 1 else "")
            + f": {entry['error_type']}: {entry['error']}"
            for entry in failures[:5]
        )
        if len(failures) > 5:
            details += f"; ... {len(failures) - 5} more group(s)"
        super().__init__(
            f"{cells} cell(s) in {len(failures)} group(s) failed permanently "
            f"({rows_landed} row(s) landed in the store): {details}"
        )


@dataclass
class _Task:
    """One supervised work item: one :func:`run_batch_timed` call."""

    #: (store key, cell) per unique pending cell of this item.
    entries: list[tuple[str, SweepCell]]
    #: ``"batch"`` (a whole group) or ``"cell"`` (one cell a degraded group
    #: left behind).
    mode: str
    #: Charged attempts completed (failures that consumed retry budget).
    attempt: int = 0
    #: Uncharged infrastructure failures suffered (pool-breaking crashes).
    disruptions: int = 0
    #: Executions inherited from the batch lineage a degraded cell left.
    base_attempts: int = 0
    #: Errors observed so far, newest last (feeds failure records).
    errors: list[str] = field(default_factory=list)

    @property
    def executions(self) -> int:
        """Executions of this task's lineage — the fault-plane attempt base.

        Includes disruptions: a transient ``times=1`` crash fault must see
        attempt 2 on the re-run after its own crash, or it would re-fire
        forever.
        """
        return self.base_attempts + self.attempt + self.disruptions

    @property
    def charged_attempts(self) -> int:
        """Charged executions only — what failure records report.

        Disruptions are excluded deliberately: whether an innocent group was
        in flight when a neighbour crashed the pool depends on scheduling,
        and failure rows must be a pure function of matrix + faults (the
        byte-identical chaos-replay guarantee).  A task exhausted purely by
        disruptions (a permanent crasher) reports those instead.
        """
        charged = self.base_attempts + self.attempt
        return charged if charged > 0 else self.disruptions

    def describe_cells(self) -> list[str]:
        return [cell.describe() for _, cell in self.entries]


def _batch_groups(
    pending: dict[str, list[tuple[int, SweepCell]]],
) -> list[list[tuple[str, SweepCell]]]:
    """Group pending cells by (dataset, scale, seed, family), in cell order.

    One group becomes one :func:`~repro.sweep.worker.run_batch_timed` call:
    its cells share a graph, a lowered plan, the baseline workload and one
    executor per backend, so the per-(plan, graph) precompute is paid once
    per group instead of once per cell.
    """
    groups: dict[tuple, list[tuple[str, SweepCell]]] = {}
    for key, holders in pending.items():
        cell = holders[0][1]
        axes = (cell.dataset, cell.scale, cell.seed, cell.family)
        groups.setdefault(axes, []).append((key, cell))
    return list(groups.values())


def _check_store_format(store: ResultStore) -> None:
    """Refuse to resume from a store whose cell keys predate this version.

    Every sweep row carries a ``row_format`` stamp
    (:data:`repro.sweep.worker.ROW_FORMAT`).  A store written in any other
    format hashes cells differently, so resuming from it would silently
    re-execute every cell while the stale rows keep polluting aggregation —
    a clear error beats that confusion.  Rows without a ``config`` field
    are not sweep rows (the store is a generic JSONL keyed store) and are
    left alone.
    """
    for row in store.rows():
        if "config" in row and row.get("row_format") != ROW_FORMAT:
            raise ValueError(
                f"result store {store.path} holds rows in format "
                f"{row.get('row_format', 1)!r} but this version writes format "
                f"{ROW_FORMAT} (cell keys changed between the two); resuming "
                "would re-execute every cell next to the stale rows.  Start a "
                "fresh store path or pass --no-resume (ResultStore(..., "
                "resume=False)) to rebuild it."
            )


@dataclass
class SweepSummary:
    """Outcome of one sweep: per-cell rows plus execution accounting."""

    total: int
    executed: int
    skipped: int
    rows: list[dict] = field(default_factory=list)
    store_path: str | None = None
    #: Host wall-clock of the whole sweep call, seconds.
    wall_seconds: float = 0.0
    #: Summed per-cell host execution time (excludes resumed cells); under
    #: a worker pool this exceeds ``wall_seconds`` when parallelism pays.
    cell_wall_seconds: float = 0.0
    #: Supervisor accounting: charged retries, group timeouts, pool rebuilds.
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0

    @property
    def unsupported(self) -> int:
        """Cells whose backend cannot run the family (rows with null metrics)."""
        return sum(1 for row in self.rows if not row["supported"])

    @property
    def failed(self) -> int:
        """Cells that permanently failed and landed as explicit failed rows."""
        return sum(1 for row in self.rows if is_failed_row(row))

    @property
    def rows_per_second(self) -> float:
        """Completed cells per wall-clock second (resumed cells included)."""
        return self.total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "executed": self.executed,
            "skipped": self.skipped,
            "unsupported": self.unsupported,
            "failed": self.failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "wall_seconds": self.wall_seconds,
            "cell_wall_seconds": self.cell_wall_seconds,
            "store": self.store_path,
            "rows": self.rows,
        }


class _Supervisor:
    """Retry/degrade/fail bookkeeping shared by the inline and pool paths.

    Owns the policy decisions — what a failure costs, when a batch group
    degrades, when a cell permanently fails — while the drivers own the
    scheduling (inline loop vs. pool event loop).  ``finish`` lands one
    healthy outcome; ``finish_failure`` lands (or records) one permanent
    per-cell failure.
    """

    def __init__(self, policy, finish, finish_failure, metrics, tracer) -> None:
        self.policy = policy
        self.finish = finish
        self.finish_failure = finish_failure
        self.metrics = metrics
        self.tracer = tracer
        self.retries = 0
        self.timeouts = 0
        self.pool_rebuilds = 0

    def succeed(self, task: _Task, outcomes) -> None:
        for (key, _), outcome in zip(task.entries, outcomes):
            self.finish(key, *outcome)

    def fail(self, task: _Task, error: BaseException, *, charged: bool) -> list[tuple[_Task, float]]:
        """Digest one task failure → (task, delay) items to requeue.

        Charged failures consume the retry budget; uncharged ones (a
        neighbour crashed the pool) only count against the disruption
        bound.  An exhausted group degrades to one task per cell; an
        exhausted single-cell task permanently fails its cell.
        """
        task.errors.append(f"{type(error).__name__}: {error}")
        if charged:
            task.attempt += 1
            exhausted = task.attempt >= self.policy.max_attempts
        else:
            task.disruptions += 1
            exhausted = task.disruptions >= MAX_DISRUPTIONS
        if not exhausted:
            self.retries += 1
            self.metrics.counter("sweep.retries").inc()
            with self.tracer.span(
                "retry",
                category="fault",
                mode=task.mode,
                attempt=task.attempt,
                disruptions=task.disruptions,
                error=type(error).__name__,
                cells=len(task.entries),
            ):
                pass
            delay = backoff_delay(task.entries[0][0], task.attempt) if charged else 0.0
            return [(task, delay)]
        if task.mode == "batch":
            # Degrade: retry the group's cells one at a time with a fresh
            # budget each, so the poisoned cell is isolated and the healthy
            # majority still lands.
            self.metrics.counter("sweep.groups.degraded").inc()
            with self.tracer.span(
                "degrade", category="fault", cells=len(task.entries),
                error=type(error).__name__,
            ):
                pass
            return [
                (
                    _Task(
                        entries=[entry],
                        mode="cell",
                        base_attempts=task.charged_attempts,
                        errors=list(task.errors),
                    ),
                    0.0,
                )
                for entry in task.entries
            ]
        self.finish_failure(task, error)
        return []


def _terminate_workers(pool) -> None:
    """Best-effort kill of a pool's worker processes (hung or dying)."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(0.5)
        except Exception:
            pass


def run_sweep(
    matrix: ScenarioMatrix | Sequence[SweepCell],
    *,
    store: ResultStore | None = None,
    jobs: int = 1,
    graphs: dict[str, object] | None = None,
    progress: ProgressCallback | None = None,
    tracer=None,
    metrics=None,
    retry: RetryPolicy | None = None,
) -> SweepSummary:
    """Run every cell of the matrix, resuming from the store.

    Args:
        matrix: A :class:`ScenarioMatrix` or an explicit cell sequence.
        store: Resumable result store; cells whose key it already contains
            are not executed (their stored rows are returned instead) —
            except ``failed`` rows, which are re-executed so a fault-free
            re-run heals a chaos-damaged store exactly-once.
            ``None`` keeps results in memory only.
        jobs: Worker processes.  ``1`` runs inline in this process (sharing
            its dataset memo and pricing contexts); ``>1`` fans out across a
            ``ProcessPoolExecutor`` with one deterministic row per cell.
            Either way, pending cells are dispatched one *batch* per
            (dataset, scale, seed, family) group — the group shares its
            graph, lowered plan, baseline workload and per-backend executors
            (see :func:`~repro.sweep.worker.run_batch_timed`) and prices its
            config batch in one pass.
        graphs: Optional pre-built graphs keyed by cell dataset name,
            overriding the synthetic registry build (the design-space
            wrappers sweep caller-supplied graphs this way).  Requires an
            in-memory store: a cell key hashes only the cell spec, not
            graph content, so a persistent store could silently serve rows
            computed from a *different* caller-supplied graph of the same
            name on a later run.
        progress: Optional callback invoked once per cell — after execution
            for fresh cells, and during the initial store scan for resumed
            ones (``cached=True``), so ``done/total`` accounting covers
            every cell exactly once.  The final argument is the cell's host
            wall time in seconds (0.0 when resumed).
        tracer: Optional :class:`repro.obs.Tracer`.  When enabled, the
            sweep records a root span, every executed cell runs traced
            (workers ship their span segments back; each worker process is
            its own timeline track), retries/degradations emit ``fault``
            spans, and the segments are absorbed into this tracer for one
            merged fleet timeline.  Tracing never changes the rows — traced
            and untraced sweeps are byte-identical.
        metrics: Optional :class:`repro.obs.MetricsRegistry` receiving the
            fleet counters (``sweep.cells.executed`` / ``.cached`` /
            ``.unsupported`` / ``.failed``, ``sweep.retries``,
            ``sweep.timeouts``, ``sweep.pool_rebuilds``,
            ``sweep.groups.degraded``, ``sweep.cell_wall_seconds``,
            ``sweep.jobs``) and the store counters
            (``store.rows.quarantined``: corrupt lines the store's load set
            aside; ``store.rows.healed``: cells whose stored ``failed`` row
            a healthy row replaced).
        retry: Supervision policy (see :class:`RetryPolicy`); the default
            retries twice with backoff, degrades failed groups to single
            cells, and records permanent failures as explicit
            ``failed`` rows.  ``RetryPolicy(max_attempts=1,
            failed_rows=False)`` restores strict fail-fast semantics, with
            every failure reported in one :class:`SweepError`.

    Returns:
        A :class:`SweepSummary` with rows in matrix cell order.
        ``executed`` counts unique simulated cells; ``skipped`` counts cells
        served from the store or from an identical cell earlier in the same
        matrix (duplicate axis entries are simulated once).

    Raises:
        SweepError: Only when ``retry.failed_rows`` is ``False`` and cells
            failed permanently — after the drain, so every row other
            workers finished has already reached the store.
    """
    cells = matrix.cells() if isinstance(matrix, ScenarioMatrix) else list(matrix)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if store is None:
        store = ResultStore(None)
    if graphs and store.path is not None:
        raise ValueError(
            "caller-supplied graphs require an in-memory store: cell keys do "
            "not hash graph content, so resuming from a file could return "
            "rows computed from a different graph with the same name"
        )
    policy = retry if retry is not None else RetryPolicy()
    tracer = tracer or NULL_TRACER
    metrics = metrics or NULL_METRICS
    trace_cells = tracer.enabled
    started = time.perf_counter()

    _check_store_format(store)
    if store.quarantined:
        metrics.counter("store.rows.quarantined").inc(len(store.quarantined))
    results: dict[int, dict] = {}
    # Duplicate-key cells execute once; the row fans out to every holder.
    pending: dict[str, list[tuple[int, SweepCell]]] = {}
    completed = 0
    cell_wall_total = 0.0
    failures: list[dict] = []
    landed = 0
    with tracer.span("sweep", category="sweep", cells=len(cells), jobs=jobs) as root:
        for index, cell in enumerate(cells):
            cached = store.get(cell.key())
            if cached is not None and not is_failed_row(cached):
                results[index] = cached
                completed += 1
                metrics.counter("sweep.cells.cached").inc()
                # Store-resumed cells report progress too (flagged cached),
                # so a resumed sweep's done/total counter starts where it
                # left off instead of jumping over the resumed prefix.
                if progress is not None:
                    progress(cell, cached, completed, len(cells), True, 0.0)
            else:
                # Failed rows are not served: the cell re-executes, and its
                # healthy row overrides the failed one in the store.
                pending.setdefault(cell.key(), []).append((index, cell))

        def finish(
            key: str, row: dict, wall_s: float, spans, *, failed: bool = False
        ) -> None:
            nonlocal completed, cell_wall_total, landed
            if not failed and is_failed_row(store.get(key) or {}):
                metrics.counter("store.rows.healed").inc()
            store.append(row)
            landed += 1
            if spans:
                tracer.absorb(spans)
            cell_wall_total += wall_s
            if not failed:
                metrics.counter("sweep.cells.executed").inc()
                metrics.counter("sweep.cell_wall_seconds").inc(wall_s)
                if not row["supported"]:
                    metrics.counter("sweep.cells.unsupported").inc()
            for index, cell in pending[key]:
                results[index] = row
                completed += 1
                if progress is not None:
                    progress(cell, row, completed, len(cells), False, wall_s)

        def finish_failure(task: _Task, error: BaseException) -> None:
            """Land (or record) the permanent failure of a task's cells."""
            metrics.counter("sweep.cells.failed").inc(len(task.entries))
            attempts = task.charged_attempts
            if policy.failed_rows:
                for key, cell in task.entries:
                    finish(key, failed_row(cell, error, attempts), 0.0, None, failed=True)
            else:
                failures.append(
                    {
                        "keys": [key for key, _ in task.entries],
                        "cells": task.describe_cells(),
                        "mode": task.mode,
                        "attempts": attempts,
                        "error_type": type(error).__name__,
                        "error": str(error),
                        "history": list(task.errors),
                    }
                )

        supervisor = _Supervisor(policy, finish, finish_failure, metrics, tracer)

        tasks = [_Task(entries=group, mode="batch") for group in _batch_groups(pending)]

        if jobs == 1 or not pending:
            _drive_inline(tasks, supervisor, graphs, trace_cells, metrics)
        else:
            _drive_pool(tasks, supervisor, jobs, graphs, trace_cells, policy)
        root.set(executed=len(pending), resumed=len(cells) - len(pending))
    metrics.gauge("sweep.jobs").set(jobs)

    if failures:
        raise SweepError(failures, landed)

    return SweepSummary(
        total=len(cells),
        executed=len(pending),
        skipped=len(cells) - len(pending),
        rows=[results[index] for index in range(len(cells))],
        store_path=str(store.path) if store.path is not None else None,
        wall_seconds=time.perf_counter() - started,
        cell_wall_seconds=cell_wall_total,
        retries=supervisor.retries,
        timeouts=supervisor.timeouts,
        pool_rebuilds=supervisor.pool_rebuilds,
    )


def _drive_inline(
    tasks: list[_Task], supervisor: _Supervisor, graphs, trace_cells: bool, metrics
) -> None:
    """Sequential supervised execution in this process (``jobs=1``).

    Timeouts cannot preempt inline execution and crash faults would take
    the caller down with them — those two fault classes need a worker pool;
    raises, retries, degradation and failed rows all behave identically.
    """
    queue: collections.deque[tuple[_Task, float]] = collections.deque(
        (task, 0.0) for task in tasks
    )
    while queue:
        task, not_before = queue.popleft()
        wait = not_before - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        graph = graphs.get(task.entries[0][1].dataset) if graphs else None
        try:
            # The group's executors carry this sweep's metrics registry so
            # the executor-level counters (executor.cache_sim.runs /
            # .memo_hits) land next to the fleet counters.
            outcomes = run_batch_timed(
                [cell for _, cell in task.entries],
                graph,
                trace_cells,
                metrics=metrics,
                attempt=task.executions + 1,
            )
        except Exception as error:
            for item, delay in supervisor.fail(task, error, charged=True):
                queue.append((item, time.monotonic() + delay))
        else:
            supervisor.succeed(task, outcomes)


def _drive_pool(
    tasks: list[_Task],
    supervisor: _Supervisor,
    jobs: int,
    graphs,
    trace_cells: bool,
    policy: RetryPolicy,
) -> None:
    """Supervised pool event loop: submit, wait, retry, rebuild.

    In-flight submissions are capped at ``jobs`` so a submitted group is
    actually running — which is what makes per-group deadlines meaningful.
    A ``BrokenProcessPool`` (worker crash) poisons every in-flight future;
    all are drained, requeued *uncharged* (bounded by
    :data:`MAX_DISRUPTIONS`), and the pool is rebuilt.  An expired
    deadline charges the hung group one attempt, terminates the workers,
    requeues the innocent in-flight groups uncharged, and rebuilds.
    """
    order = itertools.count()
    ready: collections.deque[_Task] = collections.deque(tasks)
    waiting: list[tuple[float, int, _Task]] = []  # backoff heap
    inflight: dict[concurrent.futures.Future, _Task] = {}
    deadlines: dict[concurrent.futures.Future, float] = {}

    def make_pool():
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            initializer=seed_graph_overrides if graphs else None,
            initargs=(graphs,) if graphs else (),
        )

    def rebuild_pool(pool):
        supervisor.pool_rebuilds += 1
        supervisor.metrics.counter("sweep.pool_rebuilds").inc()
        _terminate_workers(pool)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        return make_pool()

    def submit(pool, task: _Task):
        future = pool.submit(
            run_batch_timed,
            [cell for _, cell in task.entries],
            None,
            trace_cells,
            attempt=task.executions + 1,
        )
        inflight[future] = task
        if policy.timeout_seconds is not None:
            deadlines[future] = time.monotonic() + policy.timeout_seconds

    def requeue(items: list[tuple[_Task, float]]) -> None:
        for task, delay in items:
            if delay > 0:
                heapq.heappush(waiting, (time.monotonic() + delay, next(order), task))
            else:
                ready.append(task)

    pool = make_pool()
    try:
        while ready or waiting or inflight:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                ready.append(heapq.heappop(waiting)[2])
            while ready and len(inflight) < jobs:
                task = ready.popleft()
                try:
                    submit(pool, task)
                except concurrent.futures.BrokenExecutor:
                    pool = rebuild_pool(pool)
                    submit(pool, task)
            if not inflight:
                if waiting:
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                continue

            timeout = None
            bounds = []
            if deadlines:
                bounds.append(min(deadlines.values()) - time.monotonic())
            if waiting:
                bounds.append(waiting[0][0] - time.monotonic())
            if bounds:
                timeout = max(0.0, min(bounds))
            done, _ = concurrent.futures.wait(
                set(inflight), timeout=timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            broken = False
            for future in done:
                task = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    outcomes = future.result()
                except concurrent.futures.BrokenExecutor as error:
                    broken = True
                    requeue(supervisor.fail(task, error, charged=False))
                except Exception as error:
                    requeue(supervisor.fail(task, error, charged=True))
                else:
                    supervisor.succeed(task, outcomes)
            if broken:
                # The crash poisoned every in-flight future; drain them all
                # (completed-before-the-crash results still land), requeue
                # the rest uncharged, and start a fresh pool.
                for future, task in list(inflight.items()):
                    try:
                        outcomes = future.result(timeout=5)
                    except concurrent.futures.TimeoutError:
                        requeue([(task, 0.0)])
                    except concurrent.futures.BrokenExecutor as error:
                        requeue(supervisor.fail(task, error, charged=False))
                    except Exception as error:
                        requeue(supervisor.fail(task, error, charged=True))
                    else:
                        supervisor.succeed(task, outcomes)
                inflight.clear()
                deadlines.clear()
                pool = rebuild_pool(pool)
                continue

            if deadlines:
                now = time.monotonic()
                expired = [
                    future
                    for future, deadline in list(deadlines.items())
                    if deadline <= now and future in inflight
                ]
                if expired:
                    for future in expired:
                        task = inflight.pop(future)
                        deadlines.pop(future, None)
                        supervisor.timeouts += 1
                        supervisor.metrics.counter("sweep.timeouts").inc()
                        error = TimeoutError(
                            f"sweep group timed out after {policy.timeout_seconds}s"
                        )
                        requeue(supervisor.fail(task, error, charged=True))
                    # The hung worker holds a pool slot hostage — terminate
                    # the pool; innocent in-flight groups lose their run and
                    # requeue uncharged.
                    for future, task in list(inflight.items()):
                        requeue([(task, 0.0)])
                    inflight.clear()
                    deadlines.clear()
                    pool = rebuild_pool(pool)
    finally:
        if inflight:
            _terminate_workers(pool)
        pool.shutdown(wait=not inflight, cancel_futures=True)
