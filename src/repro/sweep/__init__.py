"""Parallel scenario sweeps with a resumable, fault-tolerant result store.

The paper evaluates GNNIE as a matrix — datasets × GNN families × platforms
(Figs. 12–15) — and picks its flexible-MAC allocation and buffer sizes by
sweeping configurations over that matrix (Section VIII-A).  This package
treats the simulator as a fleet workload:

* :mod:`repro.sweep.matrix` — :class:`ScenarioMatrix` expands the four axes
  into content-hashed, picklable :class:`SweepCell`\\ s,
* :mod:`repro.sweep.worker` — :func:`run_batch_timed` executes a
  (dataset, family) group of config cells sharing one graph/plan/executor
  set (one precompute pass; a single cell is a batch of one),
* :mod:`repro.sweep.store` — :class:`ResultStore`, an append-only JSONL
  store keyed by cell hash with per-row CRC32 armor; re-running skips
  completed cells, a killed sweep resumes where it stopped, and corrupt
  interior rows are quarantined instead of crashing the load,
* :mod:`repro.sweep.repair` — offline store surgery (``repro store
  verify|repair|compact``),
* :mod:`repro.sweep.runner` — :func:`run_sweep` fans pending cells across a
  supervised process pool (:class:`RetryPolicy`: bounded retries with
  backoff, per-group timeouts, pool rebuilds on worker crashes,
  group→cell degradation) and streams rows into the store; cells that
  fail permanently land as explicit ``failed`` rows.

Deterministic chaos testing for all of the above lives in
:mod:`repro.faults`.  Store-backed aggregation (Pareto fronts, speedup
tables) lives in :mod:`repro.analysis.sweep_aggregate`; the CLI front end
is ``python -m repro sweep``.
"""

from repro.sweep.matrix import (
    DatasetCase,
    ScenarioMatrix,
    SweepCell,
    config_from_dict,
    config_to_dict,
    derive_seed,
)
from repro.sweep.repair import StoreReport, compact_store, repair_store, verify_store
from repro.sweep.runner import RetryPolicy, SweepError, SweepSummary, run_sweep
from repro.sweep.store import (
    ResultStore,
    StoreCorruptionWarning,
    canonical_row,
    is_failed_row,
)
from repro.sweep.worker import ROW_FORMAT, failed_row, prime_graph_memo, run_batch_timed

__all__ = [
    "DatasetCase",
    "ROW_FORMAT",
    "ResultStore",
    "RetryPolicy",
    "ScenarioMatrix",
    "StoreCorruptionWarning",
    "StoreReport",
    "SweepCell",
    "SweepError",
    "SweepSummary",
    "canonical_row",
    "compact_store",
    "config_from_dict",
    "config_to_dict",
    "derive_seed",
    "failed_row",
    "is_failed_row",
    "prime_graph_memo",
    "repair_store",
    "run_batch_timed",
    "run_sweep",
    "verify_store",
]
