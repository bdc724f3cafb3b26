"""Tests for the Weighting schedule and its functional mirror."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import WeightingKnobs, pricing_view
from repro.mapping import BlockProfile, schedule_weighting, weighting_functional
from repro.sparse import generate_sparse_features


def _knobs(config):
    """``config``'s Weighting view on the default table."""
    return pricing_view(WeightingKnobs, config, GNNIE_TABLE)


@pytest.fixture(scope="module")
def features():
    return generate_sparse_features(300, 200, 0.93, seed=9, column_skew=1.0)


class TestScheduleWeighting:
    def test_block_size_and_pass_count(self, features, profile_of):
        config = AcceleratorConfig()
        schedule = schedule_weighting(profile_of(features, config), 200, 128, _knobs(config))
        assert schedule.block_size == -(-200 // 16)
        assert schedule.num_passes == 8
        assert schedule.num_blocks <= config.num_rows

    def test_mac_counts(self, features, profile_of):
        config = AcceleratorConfig()
        schedule = schedule_weighting(profile_of(features, config), 200, 64, _knobs(config))
        assert schedule.total_nonzero_macs == np.count_nonzero(features) * 64

    def test_compute_cycles_are_pass_times_max_row(self, features, profile_of):
        config = AcceleratorConfig()
        schedule = schedule_weighting(profile_of(features, config), 200, 128, _knobs(config))
        assert schedule.compute_cycles == schedule.num_passes * schedule.cycles_per_pass
        assert schedule.cycles_per_pass == schedule.row_cycles_per_pass.max()

    def test_flexible_mac_beats_disabled(self, features, profile_of):
        config = AcceleratorConfig()
        baseline_cfg = replace(
            config,
            macs_per_group=(4,),
            rows_per_group=(16,),
            enable_flexible_mac=False,
            enable_load_redistribution=False,
        )
        fm = schedule_weighting(profile_of(features, config), 200, 128, _knobs(config))
        base = schedule_weighting(
            profile_of(features, baseline_cfg), 200, 128, _knobs(baseline_cfg)
        )
        assert fm.compute_cycles < base.compute_cycles

    def test_load_redistribution_applied_when_enabled(self, features, profile_of):
        config = AcceleratorConfig()
        schedule = schedule_weighting(profile_of(features, config), 200, 64, _knobs(config))
        assert schedule.load_redistribution is not None
        no_lr_cfg = replace(config, enable_load_redistribution=False)
        no_lr = schedule_weighting(profile_of(features, no_lr_cfg), 200, 64, _knobs(no_lr_cfg))
        assert no_lr.load_redistribution is None
        assert schedule.cycles_per_pass <= no_lr.cycles_per_pass

    def test_statistical_block_nonzeros_path(self):
        config = AcceleratorConfig()
        blocks = np.full((100, 16), 3, dtype=np.int64)
        schedule = schedule_weighting(BlockProfile.from_counts(blocks), 64, 32, _knobs(config))
        assert schedule.total_nonzero_macs == blocks.sum() * 32
        assert schedule.block_size == 4

    @pytest.mark.parametrize(
        "shape, per_block",
        [((100, 8), 6), ((100, 8), 3), ((100, 16), 6)],
        ids=["blocks-and-counts", "block-count", "largest-count"],
    )
    def test_profile_contradicting_in_features_rejected(self, shape, per_block):
        """F_in = 64 means k = 4: 16 blocks of at most 4 nonzeros each."""
        profile = BlockProfile.from_counts(np.full(shape, per_block))
        with pytest.raises(ValueError, match="contradicts"):
            schedule_weighting(profile, 64, 32, _knobs(AcceleratorConfig()))

    @pytest.mark.parametrize("in_features, out_features", [(64, 0), (0, 32)])
    def test_non_positive_widths_rejected(self, in_features, out_features):
        profile = BlockProfile.from_counts(np.ones((4, 16)))
        with pytest.raises(ValueError, match="must be positive"):
            schedule_weighting(profile, in_features, out_features, _knobs(AcceleratorConfig()))

    def test_average_row_utilization_bounded(self, features, profile_of):
        config = AcceleratorConfig()
        schedule = schedule_weighting(profile_of(features, config), 200, 64, _knobs(config))
        assert 0.0 < schedule.average_row_utilization <= 1.0

    def test_all_zero_features_need_no_compute_with_zero_skipping(self, profile_of):
        config = AcceleratorConfig()
        zeros = np.zeros((50, 64))
        skipping = schedule_weighting(profile_of(zeros, config), 64, 32, _knobs(config))
        assert skipping.total_nonzero_macs == 0
        assert skipping.compute_cycles == 0


class TestWeightingFunctional:
    def test_matches_dense_matmul(self, features):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(features.shape[1], 48))
        config = AcceleratorConfig()
        np.testing.assert_allclose(
            weighting_functional(features, weight, _knobs(config)), features @ weight, atol=1e-9
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighting_functional(np.ones((4, 5)), np.ones((6, 2)), AcceleratorConfig())

    @settings(max_examples=20, deadline=None)
    @given(
        vertices=st.integers(min_value=1, max_value=40),
        in_features=st.integers(min_value=1, max_value=64),
        out_features=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_blocked_equals_dense_property(self, vertices, in_features, out_features, seed):
        """The blocked weight-stationary mapping touches every nonzero exactly
        once: its result equals the dense GEMM for any shape."""
        rng = np.random.default_rng(seed)
        features = np.where(
            rng.random((vertices, in_features)) < 0.3, rng.normal(size=(vertices, in_features)), 0.0
        )
        weight = rng.normal(size=(in_features, out_features))
        config = AcceleratorConfig()
        np.testing.assert_allclose(
            weighting_functional(features, weight, _knobs(config)), features @ weight, atol=1e-8
        )
