"""Tests for Flexible MAC workload binning and the baseline block assignment."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig, design_preset
from repro.mapping import BlockProfile, baseline_assignment, flexible_mac_assignment
from repro.sim.design_space import sweep_mac_allocations
from repro.sparse import block_nonzero_counts, generate_sparse_features

#: The 57 Flexible-MAC allocations of the MAC-budget sweep (Fig. 17).
MAC_SWEEP = sweep_mac_allocations(mac_budget=1280)


@pytest.fixture(scope="module")
def skewed_blocks():
    features = generate_sparse_features(600, 320, 0.95, seed=7, column_skew=1.1)
    return block_nonzero_counts(features, block_size=20)  # 16 blocks


@pytest.fixture(scope="module")
def skewed_profile(skewed_blocks):
    return BlockProfile.from_counts(skewed_blocks)


class TestBlockProfile:
    def test_summarizes_the_count_matrix(self, skewed_blocks, skewed_profile):
        assert skewed_profile.num_vertices == skewed_blocks.shape[0]
        assert skewed_profile.num_blocks == skewed_blocks.shape[1]
        np.testing.assert_array_equal(
            skewed_profile.position_nonzeros, skewed_blocks.sum(axis=0)
        )
        assert skewed_profile.histogram.sum() == skewed_blocks.size
        assert skewed_profile.total_nonzeros == skewed_blocks.sum()
        assert skewed_profile.max_count == skewed_blocks.max()

    @pytest.mark.parametrize("per_block", [0, 1, 7])
    def test_uniform_equals_the_full_matrix(self, per_block):
        uniform = BlockProfile.uniform(30, 5, per_block)
        full = BlockProfile.from_counts(np.full((30, 5), per_block))
        np.testing.assert_array_equal(uniform.position_nonzeros, full.position_nonzeros)
        np.testing.assert_array_equal(uniform.histogram, full.histogram)
        assert uniform.max_count == per_block

    def test_profiles_are_read_only(self, skewed_profile):
        with pytest.raises(ValueError):
            skewed_profile.histogram[0] = 0


class TestBaselineAssignment:
    def test_conserves_nonzeros(self, skewed_blocks, skewed_profile):
        config = design_preset("A")
        assignment = baseline_assignment(skewed_profile, config)
        assert assignment.total_nonzeros == skewed_blocks.sum()

    def test_block_position_maps_to_row(self, skewed_blocks, skewed_profile):
        config = design_preset("A")
        assignment = baseline_assignment(skewed_profile, config)
        np.testing.assert_array_equal(
            assignment.row_nonzeros[: skewed_blocks.shape[1]], skewed_blocks.sum(axis=0)
        )

    def test_fewer_blocks_than_rows_leaves_idle_rows(self):
        config = AcceleratorConfig()
        blocks = np.ones((10, 5), dtype=np.int64)
        assignment = baseline_assignment(BlockProfile.from_counts(blocks), config)
        assert assignment.row_block_counts[5:].sum() == 0
        assert assignment.row_cycles[5:].sum() == 0

    def test_too_many_blocks_rejected(self):
        config = AcceleratorConfig()
        with pytest.raises(ValueError):
            baseline_assignment(BlockProfile.from_counts(np.ones((4, 20))), config)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            BlockProfile.from_counts(np.ones(5, dtype=np.int64))

    def test_imbalance_metric(self, skewed_profile):
        assignment = baseline_assignment(skewed_profile, design_preset("A"))
        assert assignment.imbalance >= 1.0
        assert assignment.max_cycles >= assignment.min_cycles

    def test_row_cycles_round_up_per_row_mac_count(self):
        # Rows 0-7 have 4 MACs per CPE, rows 8-11 have 5, rows 12-15 have 6.
        blocks = np.zeros((1, 16), dtype=np.int64)
        blocks[0, 0] = 9
        blocks[0, 8] = 10
        blocks[0, 15] = 13
        cycles = baseline_assignment(BlockProfile.from_counts(blocks), AcceleratorConfig()).row_cycles
        assert cycles[0] == 3
        assert cycles[8] == 2
        assert cycles[15] == 3
        assert cycles[1] == 0

    def test_row_packs_blocks_back_to_back(self):
        # Two vertices put 5 and 3 nonzeros on row 0 (4 MACs): packed, they
        # take ceil(8 / 4) = 2 cycles, not ceil(5 / 4) + ceil(3 / 4) = 3.
        blocks = np.array([[5], [3]], dtype=np.int64)
        assignment = baseline_assignment(BlockProfile.from_counts(blocks), AcceleratorConfig())
        assert assignment.row_nonzeros[0] == 8
        assert assignment.row_cycles[0] == 2


class TestFlexibleMacAssignment:
    def test_conserves_nonzeros(self, skewed_blocks, skewed_profile):
        config = AcceleratorConfig()
        assignment = flexible_mac_assignment(skewed_profile, config)
        assert assignment.total_nonzeros == skewed_blocks.sum()

    def test_reduces_pass_gating_cycles(self, skewed_profile):
        """FM on the flexible-MAC array must beat the uniform baseline array."""
        baseline = baseline_assignment(skewed_profile, design_preset("A"))
        flexible = flexible_mac_assignment(skewed_profile, AcceleratorConfig())
        assert flexible.max_cycles < baseline.max_cycles

    def test_reduces_imbalance(self, skewed_profile):
        baseline = baseline_assignment(skewed_profile, design_preset("A"))
        flexible = flexible_mac_assignment(skewed_profile, AcceleratorConfig())
        assert flexible.imbalance <= baseline.imbalance

    def test_heavier_rows_have_more_macs(self, skewed_profile):
        """Bins are assigned in MAC order: the densest blocks go to the last
        group, so average nonzeros per block must be non-decreasing across
        groups."""
        config = AcceleratorConfig()
        assignment = flexible_mac_assignment(skewed_profile, config)
        per_block = assignment.row_nonzeros / np.maximum(assignment.row_block_counts, 1)
        group_means = [per_block[:8].mean(), per_block[8:12].mean(), per_block[12:].mean()]
        assert group_means[0] <= group_means[1] <= group_means[2]

    def test_preprocessing_cost_linear(self, skewed_blocks, skewed_profile):
        assignment = flexible_mac_assignment(skewed_profile, AcceleratorConfig())
        assert assignment.preprocessing_operations == skewed_blocks.size

    def test_uniform_blocks_stay_balanced(self):
        """Degenerate case: identical blocks must not starve any row group."""
        assignment = flexible_mac_assignment(BlockProfile.uniform(200, 16, 5), AcceleratorConfig())
        assert assignment.imbalance < 1.2
        assert np.all(assignment.row_block_counts > 0)

    def test_policy_labels(self, skewed_profile):
        assert baseline_assignment(skewed_profile, design_preset("A")).policy == "baseline"
        assert (
            flexible_mac_assignment(skewed_profile, AcceleratorConfig()).policy == "flexible_mac"
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


#: Splits of the 16 CPE rows into row groups, from one group of all 16 rows
#: to splits with a 1-row group.
ROW_SPLITS = ((16,), (1, 15), (8, 4, 4), (4, 8, 4), (1, 1, 14), (14, 1, 1))


@st.composite
def block_count_matrices(draw):
    """All-zero, one repeated value, heavy-tailed or binomial block counts,
    so that bin boundaries fall at the start, inside and at the end of runs
    of equal counts."""
    shape = (
        draw(st.integers(min_value=1, max_value=120)),
        draw(st.integers(min_value=1, max_value=16)),
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=999)))
    kind = draw(st.sampled_from(("zero", "repeated", "heavy_tailed", "binomial")))
    if kind == "zero":
        return np.zeros(shape, dtype=np.int64)
    if kind == "repeated":
        return np.full(shape, draw(st.integers(min_value=1, max_value=232)), dtype=np.int64)
    if kind == "heavy_tailed":
        return np.minimum(rng.zipf(1.5, size=shape) - 1, 232).astype(np.int64)
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    return rng.binomial(20, density, size=shape).astype(np.int64)


def _assert_matches_reference(block_nonzeros, config):
    assignment = flexible_mac_assignment(BlockProfile.from_counts(block_nonzeros), config)
    nonzeros, cycles, counts = _reference_flexible_mac(block_nonzeros, config)
    np.testing.assert_array_equal(assignment.row_nonzeros, nonzeros)
    np.testing.assert_array_equal(assignment.row_cycles, cycles)
    np.testing.assert_array_equal(assignment.row_block_counts, counts)


class TestVectorizedPackingUnchanged:
    """Micro-assertions: the counting-sort packing equals the loop oracle."""

    @pytest.mark.parametrize("config", [AcceleratorConfig(), design_preset("D")])
    def test_fm_packing_matches_reference(self, skewed_blocks, config):
        _assert_matches_reference(skewed_blocks, config)

    @settings(max_examples=150, deadline=None)
    @given(
        block_nonzeros=block_count_matrices(),
        allocation=st.sampled_from([config.macs_per_group for config in MAC_SWEEP]),
        rows=st.sampled_from(ROW_SPLITS),
    )
    def test_fm_packing_matches_reference_property(self, block_nonzeros, allocation, rows):
        # A split into fewer groups takes the allocation's heaviest groups,
        # which keeps MACs per CPE non-decreasing.
        config = replace(
            AcceleratorConfig(), macs_per_group=allocation[-len(rows) :], rows_per_group=rows
        )
        _assert_matches_reference(block_nonzeros, config)

    @pytest.mark.parametrize("dataset", ["cora", "citeseer", "pubmed"])
    def test_fm_packing_matches_reference_on_citation_graph(self, dataset):
        """The real input features of each citation graph at scale 1.0,
        under every allocation of the MAC-budget sweep."""
        graph = build_dataset(dataset, scale=1.0, seed=1)
        block_size = -(-graph.feature_length // AcceleratorConfig().num_rows)
        block_nonzeros = block_nonzero_counts(graph.features, block_size)
        for config in MAC_SWEEP:
            _assert_matches_reference(block_nonzeros, config)


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
    profile = BlockProfile.from_counts(block_nonzeros)
    fm = flexible_mac_assignment(profile, config)
    base = baseline_assignment(profile, config)
    assert fm.total_nonzeros == block_nonzeros.sum()
    assert base.total_nonzeros == block_nonzeros.sum()
    assert fm.row_block_counts.sum() == block_nonzeros.size
