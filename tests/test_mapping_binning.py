"""Tests for Flexible MAC workload binning and the baseline block assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import AcceleratorConfig, design_preset
from repro.mapping import baseline_assignment, flexible_mac_assignment
from repro.sparse import block_nonzero_counts, generate_sparse_features


@pytest.fixture(scope="module")
def skewed_blocks():
    features = generate_sparse_features(600, 320, 0.95, seed=7, column_skew=1.1)
    return block_nonzero_counts(features, block_size=20)  # 16 blocks


class TestBaselineAssignment:
    def test_conserves_nonzeros(self, skewed_blocks):
        config = design_preset("A")
        assignment = baseline_assignment(skewed_blocks, config)
        assert assignment.total_nonzeros == skewed_blocks.sum()

    def test_block_position_maps_to_row(self, skewed_blocks):
        config = design_preset("A")
        assignment = baseline_assignment(skewed_blocks, config)
        np.testing.assert_array_equal(
            assignment.row_nonzeros[: skewed_blocks.shape[1]], skewed_blocks.sum(axis=0)
        )

    def test_fewer_blocks_than_rows_leaves_idle_rows(self):
        config = AcceleratorConfig()
        blocks = np.ones((10, 5), dtype=np.int64)
        assignment = baseline_assignment(blocks, config)
        assert assignment.row_block_counts[5:].sum() == 0
        assert assignment.row_cycles[5:].sum() == 0

    def test_too_many_blocks_rejected(self):
        config = AcceleratorConfig()
        with pytest.raises(ValueError):
            baseline_assignment(np.ones((4, 20), dtype=np.int64), config)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            baseline_assignment(np.ones(5, dtype=np.int64), AcceleratorConfig())

    def test_imbalance_metric(self, skewed_blocks):
        assignment = baseline_assignment(skewed_blocks, design_preset("A"))
        assert assignment.imbalance >= 1.0
        assert assignment.max_cycles >= assignment.min_cycles

    def test_row_cycles_round_up_per_row_mac_count(self):
        # Rows 0-7 have 4 MACs per CPE, rows 8-11 have 5, rows 12-15 have 6.
        blocks = np.zeros((1, 16), dtype=np.int64)
        blocks[0, 0] = 9
        blocks[0, 8] = 10
        blocks[0, 15] = 13
        cycles = baseline_assignment(blocks, AcceleratorConfig()).row_cycles
        assert cycles[0] == 3
        assert cycles[8] == 2
        assert cycles[15] == 3
        assert cycles[1] == 0

    def test_row_packs_blocks_back_to_back(self):
        # Two vertices put 5 and 3 nonzeros on row 0 (4 MACs): packed, they
        # take ceil(8 / 4) = 2 cycles, not ceil(5 / 4) + ceil(3 / 4) = 3.
        blocks = np.array([[5], [3]], dtype=np.int64)
        assignment = baseline_assignment(blocks, AcceleratorConfig())
        assert assignment.row_nonzeros[0] == 8
        assert assignment.row_cycles[0] == 2


class TestFlexibleMacAssignment:
    def test_conserves_nonzeros(self, skewed_blocks):
        config = AcceleratorConfig()
        assignment = flexible_mac_assignment(skewed_blocks, config)
        assert assignment.total_nonzeros == skewed_blocks.sum()

    def test_reduces_pass_gating_cycles(self, skewed_blocks):
        """FM on the flexible-MAC array must beat the uniform baseline array."""
        baseline = baseline_assignment(skewed_blocks, design_preset("A"))
        flexible = flexible_mac_assignment(skewed_blocks, AcceleratorConfig())
        assert flexible.max_cycles < baseline.max_cycles

    def test_reduces_imbalance(self, skewed_blocks):
        baseline = baseline_assignment(skewed_blocks, design_preset("A"))
        flexible = flexible_mac_assignment(skewed_blocks, AcceleratorConfig())
        assert flexible.imbalance <= baseline.imbalance

    def test_heavier_rows_have_more_macs(self, skewed_blocks):
        """Bins are assigned in MAC order: the densest blocks go to the last
        group, so average nonzeros per block must be non-decreasing across
        groups."""
        config = AcceleratorConfig()
        assignment = flexible_mac_assignment(skewed_blocks, config)
        per_block = assignment.row_nonzeros / np.maximum(assignment.row_block_counts, 1)
        group_means = [per_block[:8].mean(), per_block[8:12].mean(), per_block[12:].mean()]
        assert group_means[0] <= group_means[1] <= group_means[2]

    def test_preprocessing_cost_linear(self, skewed_blocks):
        assignment = flexible_mac_assignment(skewed_blocks, AcceleratorConfig())
        assert assignment.preprocessing_operations == skewed_blocks.size

    def test_uniform_blocks_stay_balanced(self):
        """Degenerate case: identical blocks must not starve any row group."""
        blocks = np.full((200, 16), 5, dtype=np.int64)
        assignment = flexible_mac_assignment(blocks, AcceleratorConfig())
        assert assignment.imbalance < 1.2
        assert np.all(assignment.row_block_counts > 0)

    def test_policy_labels(self, skewed_blocks):
        assert baseline_assignment(skewed_blocks, design_preset("A")).policy == "baseline"
        assert (
            flexible_mac_assignment(skewed_blocks, AcceleratorConfig()).policy == "flexible_mac"
        )


def _reference_flexible_mac(block_nonzeros, config):
    """Pre-vectorization per-row Python-loop packing, kept as the oracle."""
    flat = np.asarray(block_nonzeros, dtype=np.int64).ravel()
    group_macs = np.asarray(
        [macs * rows for macs, rows in zip(config.macs_per_group, config.rows_per_group)],
        dtype=np.float64,
    )
    order = np.argsort(flat, kind="stable")
    sorted_nonzeros = flat[order]
    cumulative_work = np.cumsum(sorted_nonzeros.astype(np.float64))
    total_work = float(cumulative_work[-1]) if cumulative_work.size else 0.0
    targets = np.cumsum(group_macs / group_macs.sum())[:-1] * total_work
    boundaries = np.concatenate(
        [[0], np.searchsorted(cumulative_work, targets, side="left"), [flat.size]]
    ).astype(np.int64)
    boundaries = np.maximum.accumulate(boundaries)
    per_row_blocks = [np.empty(0, dtype=np.int64) for _ in range(config.num_rows)]
    row_offset = 0
    for group, rows in enumerate(config.rows_per_group):
        group_blocks = sorted_nonzeros[boundaries[group] : boundaries[group + 1]]
        for local_row in range(rows):
            per_row_blocks[row_offset + local_row] = group_blocks[local_row::rows]
        row_offset += rows
    nonzeros = np.array([int(blocks.sum()) for blocks in per_row_blocks], dtype=np.int64)
    counts = np.array([blocks.size for blocks in per_row_blocks], dtype=np.int64)
    cycles = np.array(
        [
            -(-int(blocks.sum()) // macs) if blocks.size else 0
            for blocks, macs in zip(per_row_blocks, config.macs_per_row)
        ],
        dtype=np.int64,
    )
    return nonzeros, cycles, counts


class TestVectorizedPackingUnchanged:
    """Micro-assertions: the NumPy-gather packing equals the loop oracle."""

    @pytest.mark.parametrize("config", [AcceleratorConfig(), design_preset("D")])
    def test_fm_packing_matches_reference(self, skewed_blocks, config):
        assignment = flexible_mac_assignment(skewed_blocks, config)
        nonzeros, cycles, counts = _reference_flexible_mac(skewed_blocks, config)
        np.testing.assert_array_equal(assignment.row_nonzeros, nonzeros)
        np.testing.assert_array_equal(assignment.row_cycles, cycles)
        np.testing.assert_array_equal(assignment.row_block_counts, counts)

    @settings(max_examples=25, deadline=None)
    @given(
        vertices=st.integers(min_value=1, max_value=120),
        blocks=st.integers(min_value=1, max_value=16),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_fm_packing_matches_reference_property(self, vertices, blocks, density, seed):
        rng = np.random.default_rng(seed)
        block_nonzeros = rng.binomial(20, density, size=(vertices, blocks)).astype(np.int64)
        config = AcceleratorConfig()
        assignment = flexible_mac_assignment(block_nonzeros, config)
        nonzeros, cycles, counts = _reference_flexible_mac(block_nonzeros, config)
        np.testing.assert_array_equal(assignment.row_nonzeros, nonzeros)
        np.testing.assert_array_equal(assignment.row_cycles, cycles)
        np.testing.assert_array_equal(assignment.row_block_counts, counts)


@settings(max_examples=25, deadline=None)
@given(
    vertices=st.integers(min_value=1, max_value=200),
    blocks=st.integers(min_value=1, max_value=16),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=999),
)
def test_fm_work_conservation_property(vertices, blocks, density, seed):
    """No nonzero may be lost or duplicated by the FM reordering."""
    rng = np.random.default_rng(seed)
    block_nonzeros = rng.binomial(20, density, size=(vertices, blocks)).astype(np.int64)
    config = AcceleratorConfig()
    fm = flexible_mac_assignment(block_nonzeros, config)
    base = baseline_assignment(block_nonzeros, config)
    assert fm.total_nonzeros == block_nonzeros.sum()
    assert base.total_nonzeros == block_nonzeros.sum()
    assert fm.row_block_counts.sum() == block_nonzeros.size
