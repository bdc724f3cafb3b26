"""Design-space exploration utilities.

The paper chooses the Flexible MAC allocation and the on-chip buffer sizes
"through design space exploration, optimizing the cost-to-benefit ratio
(speedup gain : hardware overhead)" (Section VIII-A).  This module provides
that exploration as a library feature:

* :func:`sweep_designs` — evaluate a set of accelerator configurations on a
  workload and collect latency, area, power-proxy and the β metric,
* :func:`sweep_mac_allocations` — generate candidate MAC-per-row-group
  allocations under a MAC budget,
* :func:`sweep_buffer_sizes` — evaluate input/output buffer sizings,
* :func:`pareto_front` — extract the latency/area Pareto-optimal designs.

Since the scenario-sweep subsystem landed, the evaluation loops here are
thin wrappers over :func:`repro.sweep.run_sweep`: each configuration
becomes one sweep cell over the caller's graph, so design sweeps share the
fleet runner's worker protocol (and can fan out with ``jobs > 1``) instead
of maintaining a private serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Sequence

from repro.graph.graph import Graph
from repro.hw.config import GNNIE_TABLE, AcceleratorConfig

__all__ = [
    "DesignPoint",
    "admissible_mac_allocation",
    "sweep_designs",
    "sweep_mac_allocations",
    "sweep_buffer_sizes",
    "pareto_front",
]


def admissible_mac_allocation(
    allocation: Sequence[int], *, group_sizes: Sequence[int], mac_budget: int
) -> bool:
    """Whether a MAC-per-row-group allocation is architecturally admissible.

    The two rules :func:`sweep_mac_allocations` enumerates under — shared
    with the :mod:`repro.tune` proposer so tuned candidates obey exactly the
    grid's constraints:

    * monotonically non-decreasing across row groups (paper, Section IV-C),
    * total MACs within ``mac_budget``.
    """
    if len(allocation) != len(group_sizes):
        return False
    if any(macs <= 0 for macs in allocation):
        return False
    if list(allocation) != sorted(allocation):
        return False
    num_cols = GNNIE_TABLE.num_cols
    total = sum(macs * rows * num_cols for macs, rows in zip(allocation, group_sizes))
    return total <= mac_budget


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated accelerator configuration."""

    name: str
    config: AcceleratorConfig
    total_macs: int
    area_mm2: float
    cycles: int
    latency_seconds: float
    energy_joules: float

    @property
    def cycle_area_product(self) -> float:
        """Cost product ``cycles × area_mm2`` (lower is better on both axes),
        the scalar the cost-to-benefit exploration minimizes."""
        return self.cycles * self.area_mm2

    def beta_versus(self, baseline: "DesignPoint") -> float:
        """Speedup gain per added MAC relative to a baseline design (Eq. 9)."""
        added_macs = self.total_macs - baseline.total_macs
        if added_macs <= 0:
            return float("nan")
        return (baseline.cycles - self.cycles) / added_macs


def sweep_designs(
    graph: Graph,
    family: str,
    configs: Iterable[AcceleratorConfig],
    *,
    jobs: int = 1,
) -> list[DesignPoint]:
    """Simulate ``family`` on ``graph`` for every configuration.

    Each configuration is one cell of a single-dataset
    :class:`~repro.sweep.matrix.ScenarioMatrix` executed by
    :func:`~repro.sweep.run_sweep`; ``jobs > 1`` fans the configurations
    across worker processes.  The points are the sweep rows' own
    (:func:`~repro.analysis.sweep_aggregate.design_points_from_rows`), area
    included.
    """
    from repro.analysis.sweep_aggregate import design_points_from_rows
    from repro.sweep.matrix import DatasetCase, ScenarioMatrix
    from repro.sweep.runner import run_sweep

    matrix = ScenarioMatrix(
        datasets=(DatasetCase(name=graph.name, seed=0),),
        families=(family.lower(),),
        backends=("gnnie",),
        configs=tuple(configs),
    )
    summary = run_sweep(matrix, jobs=jobs, graphs={graph.name: graph})
    return design_points_from_rows(summary.rows)


def sweep_mac_allocations(
    *,
    mac_budget: int = 1280,
    group_sizes: tuple[int, int, int] = (8, 4, 4),
    candidate_macs: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    base_config: AcceleratorConfig | None = None,
) -> list[AcceleratorConfig]:
    """Enumerate flexible-MAC allocations within a total MAC budget.

    Allocations must be monotonically non-decreasing across row groups (the
    architecture's constraint) and must not exceed ``mac_budget`` MACs in
    total.  Returns one configuration per admissible allocation.
    """
    base = base_config or AcceleratorConfig()
    configs: list[AcceleratorConfig] = []
    for allocation in product(candidate_macs, repeat=len(group_sizes)):
        if not admissible_mac_allocation(
            allocation, group_sizes=group_sizes, mac_budget=mac_budget
        ):
            continue
        configs.append(
            replace(
                base,
                macs_per_group=tuple(allocation),
                rows_per_group=tuple(group_sizes),
                name=f"FM{allocation}",
            )
        )
    return configs


def sweep_buffer_sizes(
    graph: Graph,
    family: str,
    *,
    input_buffer_kib: Sequence[int] = (128, 256, 512, 1024),
    output_buffer_kib: Sequence[int] = (512, 1024, 2048),
    base_config: AcceleratorConfig | None = None,
    jobs: int = 1,
) -> list[DesignPoint]:
    """Evaluate combinations of input/output buffer capacities."""
    base = base_config or AcceleratorConfig()
    configs = []
    for input_kib, output_kib in product(input_buffer_kib, output_buffer_kib):
        configs.append(
            replace(
                base,
                input_buffer_bytes=input_kib * 1024,
                output_buffer_bytes=output_kib * 1024,
                name=f"IB{input_kib}K-OB{output_kib}K",
            )
        )
    return sweep_designs(graph, family, configs, jobs=jobs)


def pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """Designs not dominated in (latency, area): lower is better for both.

    Sort-then-scan in O(n log n): after sorting by (latency, area), a point
    survives iff the minimum area of its latency group is strictly below
    the best area seen at any strictly smaller latency — a point with equal
    latency and higher area is dominated within its group, one whose area
    merely ties the running minimum is dominated through strictly smaller
    latency.  Exact-duplicate (latency, area) pairs dominate neither each
    other nor anything their twin does not, so all duplicates of a
    surviving point survive, matching the all-pairs domination definition.
    """
    order = sorted(
        range(len(points)),
        key=lambda i: (points[i].latency_seconds, points[i].area_mm2),
    )
    keep = [False] * len(points)
    best_area = float("inf")
    start = 0
    while start < len(order):
        stop = start
        latency = points[order[start]].latency_seconds
        while stop < len(order) and points[order[stop]].latency_seconds == latency:
            stop += 1
        group_min = points[order[start]].area_mm2
        if group_min < best_area:
            for position in range(start, stop):
                index = order[position]
                if points[index].area_mm2 == group_min:
                    keep[index] = True
            best_area = group_min
        start = stop
    front = [point for index, point in enumerate(points) if keep[index]]
    return sorted(front, key=lambda point: point.latency_seconds)
