"""Flexible MAC (FM) workload binning for the Weighting phase.

Section IV-C of the paper: because input vertex feature vectors have widely
varying sparsity, the k-element blocks mapped to CPE rows take very different
times ("rabbits" vs. "turtles").  GNNIE's Flexible MAC architecture gives the
CPE rows of different row groups different numbers of MAC units, and a linear
time preprocessing step bins the feature blocks by nonzero count so that the
bin of densest blocks is served by the row group with the most MACs.

This module implements

* :class:`BlockProfile` — everything a Weighting schedule reads from the
  ``(V, ceil(F / k))`` block nonzero-count matrix: the vertex count, the
  nonzero sum at each block position and the histogram of per-block
  nonzero counts,
* :func:`baseline_assignment` — the position-based mapping (block ``i`` of
  every vertex goes to CPE row ``i``) used by Design A, which exhibits the
  imbalance shown in Fig. 16,
* :func:`flexible_mac_assignment` — nonzero-count binning with bins assigned
  to row groups in MAC order, and round-robin distribution within a group,
  computed as the paper's counting sort over the profile's histogram,
* the shared :class:`BlockAssignment` result type consumed by the Weighting
  cycle model and by the Fig. 16/17 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import AcceleratorConfig, WeightingKnobs

__all__ = ["BlockAssignment", "BlockProfile", "baseline_assignment", "flexible_mac_assignment"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class BlockProfile:
    """What the Weighting schedule reads from a block nonzero-count matrix.

    The position-based baseline needs only the nonzero sum at each block
    position, and Flexible-MAC binning depends only on the multiset of
    per-block counts, so a ``(V, B)`` matrix reduces to ``B`` sums and a
    histogram of at most ``k + 1`` bins.  The arrays are read-only:
    profiles are memoized per graph and shared across configs.

    Attributes:
        num_vertices: V, the rows of the summarized matrix.
        position_nonzeros: ``(B,)`` nonzeros summed over vertices at each
            block position.
        histogram: ``histogram[c]`` is the number of blocks holding exactly
            ``c`` nonzeros; it sums to ``V * B``.
    """

    num_vertices: int
    position_nonzeros: np.ndarray
    histogram: np.ndarray

    @classmethod
    def from_counts(cls, block_nonzeros: np.ndarray) -> BlockProfile:
        """Profile of a ``(num_vertices, num_blocks)`` nonzero-count matrix."""
        blocks = np.asarray(block_nonzeros, dtype=np.int64)
        if blocks.ndim != 2:
            raise ValueError("block_nonzeros must be (num_vertices, num_blocks)")
        return cls(
            num_vertices=int(blocks.shape[0]),
            position_nonzeros=_frozen(blocks.sum(axis=0)),
            histogram=_frozen(np.bincount(blocks.ravel())),
        )

    @classmethod
    def uniform(cls, num_vertices: int, num_blocks: int, per_block: int) -> BlockProfile:
        """Every one of the ``num_vertices * num_blocks`` blocks holds ``per_block``."""
        histogram = np.zeros(per_block + 1, dtype=np.int64)
        histogram[per_block] = num_vertices * num_blocks
        return cls(
            num_vertices=num_vertices,
            position_nonzeros=_frozen(
                np.full(num_blocks, num_vertices * per_block, dtype=np.int64)
            ),
            histogram=_frozen(histogram),
        )

    @property
    def num_blocks(self) -> int:
        """B, the block positions of one feature vector."""
        return int(self.position_nonzeros.size)

    @property
    def total_nonzeros(self) -> int:
        return int(self.position_nonzeros.sum())

    @property
    def max_count(self) -> int:
        """Largest nonzero count of any block (0 when there are no blocks)."""
        occupied = np.flatnonzero(self.histogram)
        return int(occupied[-1]) if occupied.size else 0


@dataclass(frozen=True)
class BlockAssignment:
    """Outcome of assigning feature blocks to CPE rows for one pass.

    Attributes:
        row_nonzeros: Total nonzero operands assigned to each CPE row.
        row_cycles: Cycles each row needs to process its blocks once against
            one resident weight column set (Σ ceil(nnz_block / MACs_per_CPE)).
        row_block_counts: Number of blocks assigned to each row.
        policy: "baseline" or "flexible_mac".
        preprocessing_operations: Cost of the binning preprocessing (linear
            in the number of blocks), charged by the simulator.
    """

    row_nonzeros: np.ndarray
    row_cycles: np.ndarray
    row_block_counts: np.ndarray
    policy: str
    preprocessing_operations: int

    @property
    def max_cycles(self) -> int:
        return int(self.row_cycles.max()) if self.row_cycles.size else 0

    @property
    def min_cycles(self) -> int:
        return int(self.row_cycles.min()) if self.row_cycles.size else 0

    @property
    def imbalance(self) -> float:
        """Max-to-mean cycle ratio (1.0 = perfectly balanced)."""
        mean = float(self.row_cycles.mean()) if self.row_cycles.size else 0.0
        if mean == 0.0:
            return 1.0
        return float(self.max_cycles / mean)

    @property
    def total_nonzeros(self) -> int:
        return int(self.row_nonzeros.sum())


def _row_cycles(nonzeros: np.ndarray, macs_per_row: tuple[int, ...]) -> np.ndarray:
    """Per-row cycle totals from per-row nonzero totals.

    A CPE pipelines blocks back to back ("immediately move on to a block
    from the next available subvector", Section IV-A), so the nonzero
    operands assigned to a row pack densely into its MAC slots: the row's
    cycle count is ``ceil(total nonzeros / MACs per CPE)``.
    """
    macs = np.asarray(macs_per_row, dtype=np.int64)
    return -(-nonzeros // macs)


def baseline_assignment(
    profile: BlockProfile, config: AcceleratorConfig | WeightingKnobs
) -> BlockAssignment:
    """Position-based mapping: block ``b`` of every vertex goes to row ``b``.

    If the feature vector has fewer blocks than the array has rows, the
    remaining rows receive no work (they idle); this is exactly the source of
    imbalance the FM architecture removes.
    """
    num_blocks = profile.num_blocks
    num_rows = config.num_rows
    if num_blocks > num_rows:
        raise ValueError(
            f"{num_blocks} blocks exceed the {num_rows} CPE rows; "
            "the block size k must be ceil(F / num_rows)"
        )
    nonzeros = np.zeros(num_rows, dtype=np.int64)
    counts = np.zeros(num_rows, dtype=np.int64)
    nonzeros[:num_blocks] = profile.position_nonzeros
    counts[:num_blocks] = profile.num_vertices
    return BlockAssignment(
        row_nonzeros=nonzeros,
        row_cycles=_row_cycles(nonzeros, config.macs_per_row),
        row_block_counts=counts,
        policy="baseline",
        preprocessing_operations=0,
    )


def flexible_mac_assignment(
    profile: BlockProfile, config: AcceleratorConfig | WeightingKnobs
) -> BlockAssignment:
    """Bin blocks by nonzero count and assign bins to MAC-ordered row groups.

    Blocks are sorted by nonzero count (a linear-time counting sort in
    hardware) and split into one bin per row group, each bin's total work
    proportional to its group's share of the array's MAC capacity: the
    lightest bin goes to the group with the fewest MACs per CPE, the
    heaviest to the group with the most, and blocks are dealt round-robin to
    the rows of their group.  Any residual per-row skew left by the binning
    granularity is what Load Redistribution subsequently removes.

    The sorted order is never materialized.  It is a sequence of runs, one
    per occupied histogram bin, so the bin boundaries and each row's share
    of every run follow by integer arithmetic in O(distinct counts × rows).
    """
    counts = np.flatnonzero(profile.histogram)  # run values, ascending
    run_blocks = profile.histogram[counts]
    run_end = np.cumsum(run_blocks)  # sorted position just past each run
    run_start = run_end - run_blocks
    work_end = np.cumsum(run_blocks * counts)  # cumulative work through each run
    num_sorted = int(run_end[-1]) if run_end.size else 0
    total_work = float(work_end[-1]) if work_end.size else 0.0

    rows_array = np.asarray(config.rows_per_group, dtype=np.int64)
    group_macs = np.asarray(config.macs_per_group, dtype=np.float64) * rows_array
    targets = np.cumsum(group_macs / group_macs.sum())[:-1] * total_work

    # A bin ends at the first sorted position whose cumulative work reaches
    # its target.  Cumulative work is an integer, so it reaches the float
    # target exactly when it reaches ceil(target).  Inside the first run
    # whose end reaches it, that takes ceil((need - work before the run) /
    # count) blocks, at least one: a run of empty blocks is reached only by
    # a zero target.
    need = np.ceil(targets).astype(np.int64)
    run = np.searchsorted(work_end, need, side="left")
    ends = np.full(need.size, num_sorted, dtype=np.int64)
    found = run < counts.size
    hit = run[found]
    work_before = work_end[hit] - run_blocks[hit] * counts[hit]
    taken = np.maximum(1, -(-(need[found] - work_before) // np.maximum(counts[hit], 1)))
    ends[found] = run_start[hit] + taken - 1
    boundaries = np.maximum.accumulate(np.concatenate([[0], ends, [num_sorted]]))

    # Group ``g`` deals sorted blocks ``[boundaries[g], boundaries[g + 1])``
    # round-robin over its ``R`` rows: of the group's first ``x`` blocks,
    # local row ``r`` receives ``x // R + (r < x % R)``.
    group_of_row = np.repeat(np.arange(rows_array.size), rows_array)
    group_rows = rows_array[group_of_row]
    local_row = np.arange(config.num_rows) - (np.cumsum(rows_array) - rows_array)[group_of_row]
    start = boundaries[:-1][group_of_row]
    stop = boundaries[1:][group_of_row]

    def dealt(position: np.ndarray) -> np.ndarray:
        """Blocks before sorted ``position`` that each row's group deals it."""
        first = np.clip(position, start, stop) - start
        return first // group_rows + (local_row < first % group_rows)

    nonzeros = counts @ (dealt(run_end[:, None]) - dealt(run_start[:, None]))
    return BlockAssignment(
        row_nonzeros=nonzeros,
        row_cycles=_row_cycles(nonzeros, config.macs_per_row),
        row_block_counts=dealt(stop),
        policy="flexible_mac",
        preprocessing_operations=num_sorted,
    )
