"""Speedup and energy-efficiency comparison helpers (Figs. 12, 13, 15)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.platform import PlatformModel, PlatformResult
from repro.graph.graph import Graph
from repro.plan.lowering import lower
from repro.sim.results import InferenceResult

__all__ = ["SpeedupEntry", "compare_against_platform", "geometric_mean"]


@dataclass(frozen=True)
class SpeedupEntry:
    """GNNIE versus one baseline platform for one (dataset, model) pair."""

    dataset: str
    model: str
    platform: str
    gnnie_latency_s: float
    baseline_latency_s: float
    gnnie_energy_j: float
    baseline_energy_j: float

    @property
    def speedup(self) -> float:
        if self.gnnie_latency_s <= 0:
            return float("inf")
        return self.baseline_latency_s / self.gnnie_latency_s

    @property
    def energy_efficiency_gain(self) -> float:
        if self.gnnie_energy_j <= 0:
            return float("inf")
        return self.baseline_energy_j / self.gnnie_energy_j


def compare_against_platform(
    gnnie_result: InferenceResult,
    graph: Graph,
    platform: PlatformModel,
    *,
    out_features: int | None = None,
) -> SpeedupEntry:
    """Evaluate one baseline platform on the same plan and form the ratio."""
    plan = lower(gnnie_result.model.lower(), graph, out_features=out_features)
    baseline: PlatformResult = platform.execute(plan, graph)
    return SpeedupEntry(
        dataset=graph.name,
        model=gnnie_result.model,
        platform=platform.name,
        gnnie_latency_s=gnnie_result.latency_seconds,
        baseline_latency_s=baseline.latency_seconds,
        gnnie_energy_j=gnnie_result.energy_joules,
        baseline_energy_j=baseline.energy_joules,
    )


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the paper's "average speedup" across datasets)."""
    array = np.asarray([value for value in values if value > 0], dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(array))))
