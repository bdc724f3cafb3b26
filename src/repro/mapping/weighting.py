"""Mapping the Weighting phase onto the CPE array (paper, Section IV).

Weighting multiplies every (sparse) vertex feature vector ``h^{l-1}_i`` by
the dense weight matrix ``W^l`` under a weight-stationary dataflow:

* the feature dimension is split into blocks of ``k = ceil(F^{l-1} / M)``
  elements, one block per CPE row,
* ``N`` columns of ``W^l`` are resident at a time (one column per CPE
  column, ``N`` the table's ``num_cols``); a *pass* streams every vertex's
  blocks against those columns, and ``ceil(F^l / N)`` passes complete the
  layer,
* zero feature elements are skipped (zero-detection buffer), so a block's
  cost is its nonzero count,
* the Flexible MAC binning and Load Redistribution policies of
  :mod:`repro.mapping.binning` and :mod:`repro.mapping.load_redistribution`
  level the per-row load.

:func:`schedule_weighting` builds the static schedule (block size, passes,
per-row assignment under the configured policy) from the input's
:class:`~repro.mapping.binning.BlockProfile`, and
:func:`weighting_functional` carries out the same blocked computation
numerically so tests can confirm the mapping is exact (every nonzero touched
exactly once, result equal to the dense GEMM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import WeightingKnobs
from repro.mapping.binning import (
    BlockAssignment,
    BlockProfile,
    baseline_assignment,
    flexible_mac_assignment,
)
from repro.mapping.load_redistribution import LoadRedistributionResult, redistribute_load

__all__ = ["WeightingSchedule", "schedule_weighting", "weighting_functional"]


@dataclass(frozen=True)
class WeightingSchedule:
    """Static schedule of one layer's Weighting phase on the CPE array.

    Attributes:
        block_size: k, elements of the feature vector per CPE row.
        num_blocks: Number of k-blocks per feature vector (≤ num_rows).
        num_passes: ceil(F_out / num_cols) weight-column passes.
        assignment: Per-row workload under the *active* policy.
        load_redistribution: LR outcome when enabled, else None.
        row_cycles_per_pass: Final per-row cycles of one pass after all
            enabled balancing steps.
        total_nonzero_macs: MAC operations after zero skipping for the whole
            layer (nonzeros × F_out).
    """

    block_size: int
    num_blocks: int
    num_passes: int
    assignment: BlockAssignment
    load_redistribution: LoadRedistributionResult | None
    row_cycles_per_pass: np.ndarray
    total_nonzero_macs: int

    @property
    def cycles_per_pass(self) -> int:
        """One pass is gated by the slowest CPE row."""
        return int(self.row_cycles_per_pass.max()) if self.row_cycles_per_pass.size else 0

    @property
    def compute_cycles(self) -> int:
        """Compute-bound Weighting cycles for the layer (all passes)."""
        return self.num_passes * self.cycles_per_pass

    @property
    def average_row_utilization(self) -> float:
        """Mean row-busy fraction relative to the slowest row."""
        maximum = self.cycles_per_pass
        if maximum == 0:
            return 1.0
        return float(self.row_cycles_per_pass.mean() / maximum)


def schedule_weighting(
    profile: BlockProfile,
    in_features: int,
    out_features: int,
    knobs: WeightingKnobs,
) -> WeightingSchedule:
    """Build the Weighting schedule of one layer from its input's block profile.

    Args:
        profile: :class:`~repro.mapping.binning.BlockProfile` of the layer's
            input at block size ``k = ceil(F_in / num_rows)`` (the simulator
            memoizes the input layer's and builds one-bin profiles for later
            layers, whose features are modeled statistically).  A profile
            whose block count is not ``ceil(F_in / k)``, or whose largest
            block count exceeds ``k``, is rejected.
        in_features: F_in, the length of the input feature vectors.
        out_features: F_out, the number of weight-matrix columns.
        knobs: The Weighting view of a configuration (array rows, MAC
            allocation, policy flags) and of the table (array columns).
    """
    if in_features <= 0 or out_features <= 0:
        raise ValueError("in_features and out_features must be positive")
    block_size = -(-in_features // knobs.num_rows)
    num_blocks = -(-in_features // block_size)
    if profile.num_blocks != num_blocks or profile.max_count > block_size:
        raise ValueError(
            f"profile of {profile.num_blocks} blocks of at most {profile.max_count} "
            f"nonzeros contradicts F_in={in_features}: {num_blocks} blocks of "
            f"at most k={block_size}"
        )
    num_passes = -(-out_features // knobs.table.num_cols)

    if knobs.enable_flexible_mac:
        assignment = flexible_mac_assignment(profile, knobs)
    else:
        assignment = baseline_assignment(profile, knobs)

    load_redistribution = None
    row_cycles = assignment.row_cycles
    if knobs.enable_load_redistribution:
        load_redistribution = redistribute_load(row_cycles)
        row_cycles = load_redistribution.cycles_after

    return WeightingSchedule(
        block_size=int(block_size),
        num_blocks=profile.num_blocks,
        num_passes=int(num_passes),
        assignment=assignment,
        load_redistribution=load_redistribution,
        row_cycles_per_pass=np.asarray(row_cycles, dtype=np.int64),
        total_nonzero_macs=profile.total_nonzeros * out_features,
    )


def weighting_functional(
    features: np.ndarray, weight: np.ndarray, knobs: WeightingKnobs
) -> np.ndarray:
    """Blocked, zero-skipping Weighting that mirrors the hardware mapping.

    Processes the feature dimension in k-element blocks (one per CPE row) and
    the output dimension in N-column passes, accumulating partial results per
    (vertex, output column) the way the MPEs do.  Numerically identical to
    ``features @ weight``; the test suite asserts this, which validates that
    the schedule covers every nonzero exactly once.
    """
    features = np.asarray(features, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if features.shape[1] != weight.shape[0]:
        raise ValueError("feature and weight dimensions do not agree")
    num_vertices, in_features = features.shape
    out_features = weight.shape[1]
    num_rows = knobs.num_rows
    num_cols = knobs.table.num_cols
    block_size = -(-in_features // num_rows)
    num_passes = -(-out_features // num_cols)
    output = np.zeros((num_vertices, out_features), dtype=np.float64)
    for pass_index in range(num_passes):
        col_start = pass_index * num_cols
        col_end = min(col_start + num_cols, out_features)
        resident_weights = weight[:, col_start:col_end]
        for block_index in range(num_rows):
            row_start = block_index * block_size
            if row_start >= in_features:
                break
            row_end = min(row_start + block_size, in_features)
            feature_block = features[:, row_start:row_end]
            weight_block = resident_weights[row_start:row_end, :]
            # Zero skipping: rows of the block with no nonzeros do no work;
            # numerically the product is unchanged.
            output[:, col_start:col_end] += feature_block @ weight_block
    return output
