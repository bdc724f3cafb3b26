"""Sweep worker: executes cells and returns their serializable result rows.

:func:`run_batch_timed` is the sweep's one unit of work: a module-level
function over picklable :class:`~repro.sweep.matrix.SweepCell` specs, so
it crosses a ``ProcessPoolExecutor`` boundary unchanged.  One call prices
every given cell of a (dataset, scale, seed, family) group while sharing
the per-(plan, graph) state across the group: the built graph, the lowered
plan and one executor per backend.  A single cell is a batch of one.
Sharing is byte-safe because executors hold no memo state: every memo —
the baseline workload derivation included — lives on the graph's pricing
context (:mod:`repro.sim.batch`) and keys on the graph content plus every
plan, config knob and width the memoized value depends on, so a row is a
pure function of its cell spec.

A per-process dataset memo keyed by (name, scale, seed) keeps the fan-out
cheap: a worker process that receives many groups of one dataset builds its
synthetic graph once, and :func:`prime_graph_memo` lets a long-lived caller
(the benchmark session) seed it with graphs it already built.

Every metric in the returned rows is a plain int/float.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.faults import trip
from repro.sweep.matrix import SweepCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph

__all__ = [
    "ROW_FORMAT",
    "failed_row",
    "prime_graph_memo",
    "run_batch_timed",
]

#: Result-row schema version, stamped into every row a sweep writes
#: (success and ``failed``, single- and multi-chip).  Bumped whenever the
#: cell-key derivation changes, so resuming a sweep from a store written
#: before the change fails with a clear error instead of silently
#: re-executing every cell next to the stale rows.  Format 7 keys every
#: cell on its chip count and on every :class:`~repro.hw.AcceleratorConfig`
#: field (10 since the miss-path hierarchy left the config).  Sweeps price
#: on the default :data:`~repro.hw.config.GNNIE_TABLE`, so it is in no key.
ROW_FORMAT = 7

#: Per-process dataset memo: (dataset, scale, seed) -> Graph.  Bounded so
#: the jobs=1 path (which runs in the caller's process and lives as long as
#: the interpreter) cannot pin an unbounded set of graphs; the bound covers
#: the full Table II registry with room for scale/seed variants.
_GRAPHS: dict[tuple, "Graph"] = {}
_GRAPH_MEMO_LIMIT = 16
#: Caller-supplied graphs by dataset name (seeded once per worker process
#: via :func:`seed_graph_overrides`, so a pool never re-pickles a graph per
#: cell).
_GRAPH_OVERRIDES: dict[str, "Graph"] = {}


def seed_graph_overrides(graphs: dict[str, "Graph"] | None) -> None:
    """Process-pool initializer installing caller-supplied graphs."""
    _GRAPH_OVERRIDES.clear()
    if graphs:
        _GRAPH_OVERRIDES.update(graphs)


def prime_graph_memo(dataset: str, scale: float | None, seed: int, graph: "Graph") -> None:
    """Seed this process's dataset memo with an already-built graph.

    In-process (``jobs=1``) sweeps then skip the synthetic build for cells
    matching ``(dataset, scale, seed)`` exactly — the benchmark session
    builds its graphs once and shares them with every sweep it times.  The
    caller must pass the graph the registry build would have produced for
    that key; the memo does not verify content.
    """
    while len(_GRAPHS) >= _GRAPH_MEMO_LIMIT:
        _GRAPHS.pop(next(iter(_GRAPHS)))
    _GRAPHS[(dataset, scale, seed)] = graph


def _graph_for(cell: SweepCell) -> "Graph":
    from repro.datasets.synthetic import build_dataset

    override = _GRAPH_OVERRIDES.get(cell.dataset)
    if override is not None:
        return override
    key = (cell.dataset, cell.scale, cell.seed)
    if key not in _GRAPHS:
        while len(_GRAPHS) >= _GRAPH_MEMO_LIMIT:
            _GRAPHS.pop(next(iter(_GRAPHS)))
        _GRAPHS[key] = build_dataset(cell.dataset, scale=cell.scale, seed=cell.seed)
    return _GRAPHS[key]


def _abbreviation_for(cell: SweepCell, graph: "Graph | None") -> str:
    """Dataset abbreviation without forcing a graph build."""
    if graph is not None:
        return graph.name
    override = _GRAPH_OVERRIDES.get(cell.dataset)
    if override is not None:
        return override.name
    from repro.datasets.registry import dataset_spec

    return dataset_spec(cell.dataset).abbreviation


def _base_row(cell: SweepCell, abbreviation: str) -> dict:
    """The row skeleton shared by success and failed rows: the cell's spec
    (every axis it is keyed on) plus the key and display fields."""
    return {
        "row_format": ROW_FORMAT,
        "key": cell.key(),
        **cell.spec(),
        "dataset_abbrev": abbreviation,
        "config_name": cell.config.name,
        "supported": True,
        "metrics": None,
    }


def _trip_cell_fault(cell: SweepCell, attempt: int) -> None:
    """Fault-injection site for one cell-execution attempt (no plan → no-op)."""
    trip(
        "cell",
        attempt=attempt,
        key=cell.key(),
        dataset=cell.dataset,
        family=cell.family,
        backend=cell.backend,
        config_name=cell.config.name,
    )


def failed_row(cell: SweepCell, error: BaseException | str, attempts: int) -> dict:
    """The explicit row of a permanently-failed cell.

    Shares the success-row skeleton (same key, axes, config) so stores stay
    uniformly keyed, plus ``status="failed"``, the error class and message,
    and how many executions were attempted.  :meth:`ResultStore.append`
    lets a later healthy row for the same key override it.
    """
    try:
        abbreviation = _abbreviation_for(cell, None)
    except Exception:
        abbreviation = cell.dataset
    row = _base_row(cell, abbreviation)
    row["status"] = "failed"
    row["error"] = {
        "type": type(error).__name__ if isinstance(error, BaseException) else "Error",
        "message": str(error),
    }
    row["attempts"] = attempts
    return row


def _result_metrics(cell: SweepCell, backend, result) -> dict:
    """Plain-number metrics of one executed cell."""
    metrics = {
        "latency_seconds": float(result.latency_seconds),
        "energy_joules": float(result.energy_joules),
        "inferences_per_kilojoule": float(result.inferences_per_kilojoule),
    }
    # GNNIE's InferenceResult carries cycle/traffic detail and a chip area
    # the store-backed Pareto aggregation needs; platform results do not.
    if hasattr(result, "total_cycles"):
        metrics.update(
            cycles=int(result.total_cycles),
            mac_operations=int(result.total_mac_operations),
            dram_bytes=int(result.total_dram_bytes),
            total_macs=int(cell.config.total_macs),
            area_mm2=float(backend.chip_area_mm2(cell.config)),
        )
    num_chips = int(getattr(result, "num_chips", 1))
    if num_chips > 1:
        metrics.update(
            chips=num_chips,
            chip_imbalance=float(result.chip_imbalance),
            communication_cycles=int(result.communication_cycles),
            halo_vertices=int(result.halo_vertices),
            halo_bytes=int(result.halo_bytes),
            # Fleet silicon: N chips' worth of area.
            area_mm2=float(backend.chip_area_mm2(cell.config)) * num_chips,
        )
    return metrics


class _BatchGroup:
    """Lazily-built shared state for one (dataset, scale, seed, family) group.

    Everything here is either a pure function of the group axes (graph,
    plan) or a stateless executor, so sharing it across the group's cells
    cannot change any row.  Laziness matters: a group whose cells are all
    unsupported (backend, family) pairs never builds the graph at all.
    """

    def __init__(self, graph: "Graph | None" = None, metrics=None) -> None:
        self.built_graph = graph
        self._plan = None
        self._executors: dict[str, object] = {}
        self._metrics = metrics

    def graph(self, cell: SweepCell) -> "Graph":
        if self.built_graph is None:
            self.built_graph = _graph_for(cell)
        return self.built_graph

    def plan(self, cell: SweepCell):
        if self._plan is None:
            from repro.plan.lowering import lower

            self._plan = lower(cell.family, self.graph(cell))
        return self._plan

    def executor(self, name: str):
        backend = self._executors.get(name)
        if backend is None:
            from repro.plan.executor import executor

            backend = executor(name)
            if self._metrics is not None and hasattr(backend, "metrics"):
                backend.metrics = self._metrics
            self._executors[name] = backend
        return backend


def _run_group_cell(cell: SweepCell, group: _BatchGroup, tracer, attempt: int) -> dict:
    """Execute one cell of a group and return its result-store row.

    Backends that do not support the cell's GNN family (e.g. AWB-GCN beyond
    GCN) or its chip count still produce a row, with ``supported=False``
    and null metrics, so a finished sweep has exactly one row per cell.
    """
    _trip_cell_fault(cell, attempt)
    backend = group.executor(cell.backend)
    if hasattr(backend, "tracer"):
        backend.tracer = tracer
    row = _base_row(cell, _abbreviation_for(cell, group.built_graph))

    # Unsupported (backend, family) combinations never need the graph, so
    # the row is produced without building the dataset.
    supports = getattr(backend, "supports", None)
    if supports is not None and not supports(cell.family):
        row["supported"] = False
        return row
    if cell.chips != 1 and not getattr(backend, "supports_scaleout", False):
        row["supported"] = False
        return row

    graph = group.graph(cell)
    plan = group.plan(cell)
    if cell.chips != 1:
        from repro.scaleout import execute_scaleout

        # The group's graph keeps its identity across the batch, so the
        # partition (and every chip subgraph's pricing context) is shared
        # through GraphPricingContext.partitions.
        result = execute_scaleout(backend, plan, graph, cell.config, chips=cell.chips)
    else:
        result = backend.execute(plan, graph, cell.config)
    row["metrics"] = _result_metrics(cell, backend, result)
    return row


def _timed_cell(
    cell: SweepCell, group: _BatchGroup, trace: bool, attempt: int
) -> tuple[dict, float, list[dict] | None]:
    """Run one cell under one ``cell`` span, on a fresh tracer when ``trace``
    is on and on the shared no-op tracer otherwise.

    Returns ``(row, wall_seconds, span_records)``: the runner's per-cell
    accounting unit.
    """
    from repro.obs.tracer import NULL_TRACER, Tracer

    tracer = Tracer() if trace else NULL_TRACER
    start = time.perf_counter()
    with tracer.span(
        "cell",
        category="cell",
        dataset=cell.dataset,
        family=cell.family,
        backend=cell.backend,
        config=cell.config.name,
        key=cell.key(),
    ) as span:
        row = _run_group_cell(cell, group, tracer, attempt)
    metrics = row.get("metrics") or {}
    if "cycles" in metrics:
        span.set(cycles=metrics["cycles"], mac_operations=metrics["mac_operations"])
    span.set(supported=row["supported"])
    wall = time.perf_counter() - start
    spans = [record.as_dict() for record in tracer.records] if trace else None
    return row, wall, spans


def run_batch_timed(
    cells: Sequence[SweepCell],
    graph: "Graph | None" = None,
    trace: bool = False,
    *,
    metrics=None,
    attempt: int = 1,
) -> list[tuple[dict, float, list[dict] | None]]:
    """Run one (dataset, scale, seed, family) group of cells.

    All cells must share the group axes (they may differ in backend and
    config).  The group's graph, plan and per-backend executors are built
    once and shared, so a config batch prices in one pass, while each cell
    still gets its own wall-clock timing and (when ``trace`` is on) its own
    ``cell`` span root.

    Args:
        cells: The group's cells; one cell is a batch of one.
        graph: Optional pre-built dataset graph (in-process sweeps over
            caller-supplied graphs); defaults to the memoized synthetic
            build for the group's (dataset, scale, seed).
        trace: Run every cell under a fresh :class:`repro.obs.Tracer`.
            Tracing never touches the rows.
        metrics: Optional :class:`repro.obs.MetricsRegistry` installed on
            the group's executors, so inline (``jobs=1``) sweeps surface the
            executor-level counters (``executor.cache_sim.runs`` /
            ``.memo_hits``) alongside the fleet counters.
        attempt: 1-based execution attempt (the supervised runner counts
            retries); only read by the fault-injection plane.

    Returns:
        One ``(row, wall_seconds, span_records)`` tuple per cell, in input
        order.  ``span_records`` is the serialized span segment of this
        process (one ``cell`` root enclosing the backend's ``inference →
        layer → op`` spans), or ``None`` when ``trace`` is off; it is
        picklable, so the pool path ships segments back to the parent for
        the merged multi-worker timeline.
    """
    group = _BatchGroup(graph=graph, metrics=metrics)
    return [_timed_cell(cell, group, trace, attempt) for cell in cells]
