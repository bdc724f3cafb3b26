"""Tests for sparse feature generation and block nonzero accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dataset_spec
from repro.sparse import block_nonzero_counts, feature_matrix, generate_sparse_features


def _loop_features(
    num_vertices,
    feature_length,
    sparsity,
    *,
    seed=0,
    sparsity_spread=0.35,
    value_scale=1.0,
    column_skew=1.1,
):
    """The generator as a per-row ``choice`` + ``uniform`` loop: the reference."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    rng = np.random.default_rng(seed)
    mean_nonzeros = max(1.0, (1.0 - sparsity) * feature_length)
    row_nonzeros = rng.lognormal(
        mean=np.log(mean_nonzeros), sigma=sparsity_spread, size=num_vertices
    )
    row_nonzeros = np.clip(np.round(row_nonzeros), 1, feature_length).astype(np.int64)
    target_total = int(round((1.0 - sparsity) * num_vertices * feature_length))
    current_total = int(row_nonzeros.sum())
    if current_total > 0 and target_total > 0:
        scaled = np.clip(
            np.round(row_nonzeros * (target_total / current_total)), 1, feature_length
        ).astype(np.int64)
        row_nonzeros = scaled
    ranks = np.arange(1, feature_length + 1, dtype=np.float64)
    popularity = ranks ** (-column_skew) if column_skew > 0 else np.ones(feature_length)
    popularity = rng.permutation(popularity)
    popularity /= popularity.sum()
    matrix = np.zeros((num_vertices, feature_length), dtype=np.float64)
    for row, count in enumerate(row_nonzeros):
        count = int(min(count, feature_length))
        columns = rng.choice(feature_length, size=count, replace=False, p=popularity)
        matrix[row, columns] = rng.uniform(0.1, value_scale, size=count)
    return matrix


def _assert_same_bytes(*args, **kwargs):
    expected = _loop_features(*args, **kwargs)
    actual = generate_sparse_features(*args, **kwargs)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestSamplerMatchesLoop:
    """The block sampler returns the reference loop's matrix byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_vertices=st.integers(min_value=0, max_value=300),
        feature_length=st.integers(min_value=1, max_value=200),
        sparsity=st.floats(min_value=0.0, max_value=0.99),
        sparsity_spread=st.floats(min_value=0.0, max_value=1.5),
        value_scale=st.floats(min_value=0.1, max_value=10.0),
        column_skew=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_arguments(self, num_vertices, feature_length, sparsity, **kwargs):
        _assert_same_bytes(num_vertices, feature_length, sparsity, **kwargs)

    @pytest.mark.parametrize(
        ("name", "scale"),
        [("cora", 1.0), ("citeseer", 1.0), ("pubmed", 1.0), ("ppi", 0.25), ("reddit", 0.02)],
    )
    def test_dataset_arguments(self, name, scale):
        """The arguments ``build_dataset(name, scale=scale, seed=0)`` passes."""
        spec = dataset_spec(name)
        _assert_same_bytes(
            spec.scaled(scale).num_vertices,
            spec.feature_length,
            spec.feature_sparsity,
            seed=7,
            column_skew=spec.column_skew,
        )

    @pytest.mark.parametrize("window", [2, 16, 256])
    def test_small_stream_windows(self, monkeypatch, window):
        """Refills and window-capped blocks read the same stream."""
        monkeypatch.setattr(feature_matrix, "_STREAM_WINDOW", window)
        _assert_same_bytes(3000, 1, 0.0, seed=5)  # every row distinct: blocks grow to the cap
        _assert_same_bytes(2000, 40, 0.97, seed=6, column_skew=0.8)
        _assert_same_bytes(200, 60, 0.5, seed=8, column_skew=1.3)

    def test_too_few_popular_columns_raise_like_the_loop(self):
        # 3 ** -1000 underflows, so only two columns can be drawn for rows of three.
        for generate in (_loop_features, generate_sparse_features):
            with pytest.raises(ValueError):
                generate(4, 3, 0.0, column_skew=1000.0)

    def test_value_scale_below_the_smallest_value_raises_like_the_loop(self):
        for generate in (_loop_features, generate_sparse_features):
            with pytest.raises(ValueError):
                generate(4, 8, 0.5, value_scale=0.05)


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
