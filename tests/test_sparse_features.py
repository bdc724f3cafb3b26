"""Tests for sparse feature generation and block nonzero accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import block_nonzero_counts, generate_sparse_features


class TestGenerateSparseFeatures:
    def test_target_sparsity_respected(self):
        matrix = generate_sparse_features(500, 200, 0.95, seed=0)
        sparsity = 1.0 - np.count_nonzero(matrix) / matrix.size
        assert sparsity == pytest.approx(0.95, abs=0.02)

    def test_every_row_has_a_nonzero(self):
        matrix = generate_sparse_features(300, 64, 0.99, seed=1)
        assert np.all(np.count_nonzero(matrix, axis=1) >= 1)

    def test_row_counts_vary(self):
        matrix = generate_sparse_features(500, 400, 0.95, seed=2)
        counts = np.count_nonzero(matrix, axis=1)
        assert counts.std() > 0.5  # rabbit/turtle spread exists

    def test_column_skew_creates_block_imbalance(self):
        skewed = generate_sparse_features(400, 320, 0.95, seed=3, column_skew=1.2)
        uniform = generate_sparse_features(400, 320, 0.95, seed=3, column_skew=0.0)
        block_std_skewed = block_nonzero_counts(skewed, 20).sum(axis=0).std()
        block_std_uniform = block_nonzero_counts(uniform, 20).sum(axis=0).std()
        assert block_std_skewed > block_std_uniform

    def test_deterministic(self):
        first = generate_sparse_features(100, 50, 0.9, seed=4)
        second = generate_sparse_features(100, 50, 0.9, seed=4)
        np.testing.assert_array_equal(first, second)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            generate_sparse_features(10, 10, 1.0)
        with pytest.raises(ValueError):
            generate_sparse_features(10, 10, -0.1)


class TestBlockNonzeroCounts:
    def test_manual_example(self):
        matrix = np.array(
            [
                [1.0, 0.0, 2.0, 0.0, 0.0, 3.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        counts = block_nonzero_counts(matrix, block_size=2)
        np.testing.assert_array_equal(counts, [[1, 1, 1], [0, 0, 0]])

    def test_uneven_last_block(self):
        matrix = np.ones((3, 5))
        counts = block_nonzero_counts(matrix, block_size=2)
        np.testing.assert_array_equal(counts, [[2, 2, 1]] * 3)

    def test_totals_match_nonzeros(self):
        rng = np.random.default_rng(5)
        matrix = np.where(rng.random((40, 97)) < 0.2, 1.0, 0.0)
        counts = block_nonzero_counts(matrix, block_size=8)
        assert counts.sum() == np.count_nonzero(matrix)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            block_nonzero_counts(np.ones(5), 2)
        with pytest.raises(ValueError):
            block_nonzero_counts(np.ones((2, 4)), 0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    cols=st.integers(min_value=1, max_value=120),
    block=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=100),
)
def test_block_counts_property(rows, cols, block, seed):
    rng = np.random.default_rng(seed)
    matrix = np.where(rng.random((rows, cols)) < 0.3, 1.0, 0.0)
    counts = block_nonzero_counts(matrix, block)
    assert counts.shape == (rows, -(-cols // block))
    assert counts.sum() == np.count_nonzero(matrix)
    assert counts.max(initial=0) <= block
