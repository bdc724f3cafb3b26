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

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.hw.config import AcceleratorConfig, design_preset
from repro.mapping.binning import BlockProfile, baseline_assignment, flexible_mac_assignment
from repro.mapping.load_redistribution import redistribute_load
from repro.sparse.feature_matrix import block_nonzero_counts

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


def weighting_row_profile(
    graph: Graph, config: AcceleratorConfig | None = None
) -> RowWorkloadProfile:
    """Compute the Fig. 16 per-row cycle profile for one dataset."""
    cfg = config or AcceleratorConfig()
    block_size = -(-graph.feature_length // cfg.num_rows)
    profile = BlockProfile.from_counts(block_nonzero_counts(graph.features, block_size))
    # The baseline design uses 4 MACs/CPE uniformly (Design A).
    baseline_cfg = design_preset("A")
    baseline = baseline_assignment(profile, baseline_cfg)
    fm = flexible_mac_assignment(profile, cfg)
    lr = redistribute_load(fm.row_cycles)
    return RowWorkloadProfile(
        dataset=graph.name,
        baseline_cycles=baseline.row_cycles,
        fm_cycles=fm.row_cycles,
        fm_lr_cycles=lr.cycles_after,
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
    block_size = -(-graph.feature_length // baseline_cfg.num_rows)
    profile = BlockProfile.from_counts(block_nonzero_counts(graph.features, block_size))
    baseline = baseline_assignment(profile, baseline_cfg)
    baseline_cycles = baseline.max_cycles
    baseline_macs = baseline_cfg.total_macs

    betas: dict[str, float] = {}
    for name in designs:
        cfg = design_preset(name)
        if cfg.enable_flexible_mac:
            assignment = flexible_mac_assignment(profile, cfg)
        else:
            assignment = baseline_assignment(profile, cfg)
        betas[name] = beta_metric(
            baseline_cycles, assignment.max_cycles, baseline_macs, cfg.total_macs
        )
    return betas
