"""Mechanism-ablation tables for the miss-path hierarchy.

These helpers back the ``repro cache`` CLI subcommand and the
``benchmarks/test_ablation_miss_path.py`` table: they run the hit-path
policy simulators with trace collection, filter each trace through victim
cache / miss cache / stream buffer configurations, and emit rows ready for
:func:`repro.analysis.format_table` — one row per (policy, mechanism) with
the snippet-1 statistics (accesses, hits, hit rate) plus the recovered
random-DRAM traffic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from repro.cache.hierarchy import MissPathConfig, MissPathHierarchy
from repro.cache.policies import simulate_policy
from repro.graph.csr import CSRGraph

__all__ = ["miss_path_ablation_rows"]


def miss_path_ablation_rows(
    adjacency: CSRGraph,
    *,
    capacity: int,
    bytes_per_vertex: int = 256,
    policies: Sequence[str] = ("vertex_order",),
    mechanisms: Iterable[str] = ("victim", "miss", "stream"),
    miss_config: MissPathConfig | None = None,
    gamma: int = 5,
    dataset: str | None = None,
) -> list[dict[str, object]]:
    """One table row per (policy, mechanism), plus a combined row.

    Mechanisms are probed in parallel, so each mechanism's hit mask is
    independent of its co-residents: one combined hierarchy filter per
    policy yields both the per-mechanism statistics (each mechanism's own
    hits are exactly the random DRAM accesses it would avoid alone) and the
    union row (:meth:`~repro.cache.hierarchy.HierarchyResult.rows`).
    ``sequential_fetches`` is repeated on every row so ablations can assert
    the hit path was left untouched.
    """
    sizing = miss_config or MissPathConfig()
    mechanism_list = tuple(mechanisms)
    hierarchy = MissPathHierarchy(replace(sizing, mechanisms=mechanism_list))
    rows: list[dict[str, object]] = []
    for policy in policies:
        result = simulate_policy(
            policy,
            adjacency,
            capacity,
            bytes_per_vertex=bytes_per_vertex,
            gamma=gamma,
            collect_trace=True,
        )
        trace = result.trace
        assert trace is not None
        outcome = hierarchy.filter(trace)
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
