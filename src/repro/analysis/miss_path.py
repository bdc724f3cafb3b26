"""Mechanism-ablation tables for the miss-path hierarchy.

These helpers back the ``repro cache`` CLI subcommand and the
``benchmarks/test_ablation_miss_path.py`` table: they run the id-order
policies with trace collection (:func:`~repro.cache.miss_trace`), filter
each trace through the victim cache / miss cache / stream buffers named by
the arguments, and emit rows ready for :func:`repro.analysis.format_table` —
one row per (policy, mechanism) with the snippet-1 statistics (accesses,
hits, hit rate) plus the recovered random-DRAM traffic.  GNNIE's
degree-aware walk has no row: it never misses.
"""

from __future__ import annotations

from typing import Sequence

from repro.cache import MISS_PATH_MECHANISMS, check_miss_path, filter_misses, miss_trace
from repro.graph.csr import CSRGraph
from repro.hw.config import AcceleratorConfig
from repro.sim.aggregation_sim import input_buffer_capacity

__all__ = ["miss_path_ablation_rows"]


def miss_path_ablation_rows(
    adjacency: CSRGraph,
    config: AcceleratorConfig,
    feature_length: int,
    *,
    policies: Sequence[str] = ("vertex_order",),
    dataset: str | None = None,
    mechanisms: Sequence[str] = MISS_PATH_MECHANISMS,
    victim_entries: int = 64,
    miss_entries: int = 4096,
    stream_buffers: int = 4,
    stream_depth: int = 16,
) -> list[dict[str, object]]:
    """One table row per (id-order policy, mechanism), plus a combined row.

    The buffer capacity and record size are the ones the simulator charges
    (:func:`~repro.sim.aggregation_sim.input_buffer_capacity` of ``config``
    at ``feature_length``).  ``mechanisms`` and the four sizes are
    :func:`~repro.cache.filter_misses`'s, checked before any trace is built.
    Mechanisms are probed in parallel, so each mechanism's hit mask is
    independent of its co-residents: one hierarchy filter per policy yields
    both the per-mechanism statistics (each mechanism's own hits are exactly
    the random DRAM accesses it would avoid alone) and the union row
    (:meth:`~repro.cache.hierarchy.HierarchyResult.rows`).
    ``sequential_fetches`` is repeated on every row so ablations can assert
    the hit path was left untouched.
    """
    sizes = {
        "victim_entries": victim_entries,
        "miss_entries": miss_entries,
        "stream_buffers": stream_buffers,
        "stream_depth": stream_depth,
    }
    check_miss_path(mechanisms, **sizes)
    capacity, record_bytes = input_buffer_capacity(adjacency, config, feature_length)
    rows: list[dict[str, object]] = []
    for policy in policies:
        result, trace = miss_trace(policy, adjacency, capacity, bytes_per_vertex=record_bytes)
        outcome = filter_misses(trace, mechanisms, **sizes)
        for mechanism_row in outcome.rows():
            row: dict[str, object] = {}
            if dataset is not None:
                row["dataset"] = dataset
            row["policy"] = policy
            row.update(mechanism_row)
            row["dram_random_remaining"] = int(row["accesses"]) - int(row["hits"])
            row["sequential_fetches"] = result.vertex_fetches
            rows.append(row)
    return rows
