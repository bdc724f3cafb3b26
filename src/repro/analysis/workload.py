"""Per-CPE-row Weighting workload profiles (Fig. 16) and the β metric (Fig. 17).

Fig. 16 plots the cycles each CPE row needs during Weighting for three
policies — the position-based baseline, Flexible MAC binning (FM), and FM
plus Load Redistribution (FM+LR) — showing that each step flattens the
profile and lowers the maximum.  Fig. 17 defines

    β = (baseline cycles − design cycles) / (design MACs − baseline MACs),

the speedup gain per added MAC, and shows that the flexible-MAC design E
achieves a much higher β than uniformly adding MACs (designs B–D).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graph.graph import Graph
from repro.hw.config import GNNIE_TABLE, AcceleratorConfig, WeightingKnobs, design_preset
from repro.hw.config import pricing_view
from repro.mapping.weighting import WeightingSchedule, schedule_weighting
from repro.sim.batch import pricing_context

__all__ = ["RowWorkloadProfile", "weighting_row_profile", "beta_metric", "design_beta_study"]


@dataclass(frozen=True)
class RowWorkloadProfile:
    """Per-row Weighting cycles under the three balancing policies."""

    dataset: str
    baseline_cycles: np.ndarray
    fm_cycles: np.ndarray
    fm_lr_cycles: np.ndarray

    @staticmethod
    def _imbalance(cycles: np.ndarray) -> float:
        mean = float(cycles.mean()) if cycles.size else 0.0
        return float(cycles.max() / mean) if mean else 1.0

    @property
    def baseline_imbalance(self) -> float:
        return self._imbalance(self.baseline_cycles)

    @property
    def fm_imbalance(self) -> float:
        return self._imbalance(self.fm_cycles)

    @property
    def fm_lr_imbalance(self) -> float:
        return self._imbalance(self.fm_lr_cycles)

    @property
    def fm_cycle_reduction(self) -> float:
        """Fractional reduction of the pass-gating (max) cycles from FM."""
        baseline_max = float(self.baseline_cycles.max())
        if baseline_max == 0:
            return 0.0
        return 1.0 - float(self.fm_cycles.max()) / baseline_max

    @property
    def fm_lr_cycle_reduction(self) -> float:
        baseline_max = float(self.baseline_cycles.max())
        if baseline_max == 0:
            return 0.0
        return 1.0 - float(self.fm_lr_cycles.max()) / baseline_max


def _input_schedule(graph: Graph, config: AcceleratorConfig) -> WeightingSchedule:
    """The input layer's Weighting schedule under ``config``: the FM/LR
    choice and the block profile the executor prices with."""
    block_size = -(-graph.feature_length // config.num_rows)
    return schedule_weighting(
        pricing_context(graph).input_profile(block_size),
        graph.feature_length,
        GNNIE_TABLE.num_cols,
        pricing_view(WeightingKnobs, config, GNNIE_TABLE),
    )


def weighting_row_profile(graph: Graph) -> RowWorkloadProfile:
    """Compute the Fig. 16 per-row cycle profile for one dataset.

    The baseline is Design A (4 MACs/CPE uniformly); FM and FM+LR are
    GNNIE's default array with Load Redistribution off and on.
    """
    gnnie = AcceleratorConfig()
    configs = (design_preset("A"), replace(gnnie, enable_load_redistribution=False), gnnie)
    baseline, fm, fm_lr = (_input_schedule(graph, cfg).row_cycles_per_pass for cfg in configs)
    return RowWorkloadProfile(
        dataset=graph.name, baseline_cycles=baseline, fm_cycles=fm, fm_lr_cycles=fm_lr
    )


def beta_metric(
    baseline_cycles: int, design_cycles: int, baseline_macs: int, design_macs: int
) -> float:
    """β = cycle reduction per added MAC (Eq. (9) of the paper)."""
    added_macs = design_macs - baseline_macs
    if added_macs <= 0:
        raise ValueError("the design must add MACs relative to the baseline")
    return (baseline_cycles - design_cycles) / added_macs


def design_beta_study(graph: Graph, designs: tuple[str, ...] = ("B", "C", "D", "E")) -> dict[str, float]:
    """β of each named design relative to Design A for one dataset (Fig. 17).

    The cycle count used is the pass-gating Weighting cycle count (the
    maximum per-row cycles), which is what added MACs buy down.
    """
    baseline_cfg = design_preset("A")
    baseline_cycles = _input_schedule(graph, baseline_cfg).cycles_per_pass
    betas: dict[str, float] = {}
    for name in designs:
        cfg = design_preset(name)
        cycles = _input_schedule(graph, cfg).cycles_per_pass
        betas[name] = beta_metric(baseline_cycles, cycles, baseline_cfg.total_macs, cfg.total_macs)
    return betas
