"""Sparse vertex-feature matrix utilities.

The Weighting scheduler needs per-vertex, per-block nonzero counts (to bin
workloads for the Flexible MAC architecture, paper Section IV-C).  This
module computes them from a dense NumPy feature matrix and holds the
sparse-aware generator used by the synthetic datasets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_sparse_features", "block_nonzero_counts"]


def generate_sparse_features(
    num_vertices: int,
    feature_length: int,
    sparsity: float,
    *,
    seed: int = 0,
    sparsity_spread: float = 0.35,
    value_scale: float = 1.0,
    column_skew: float = 1.1,
) -> np.ndarray:
    """Generate a sparse feature matrix with heterogeneous sparsity.

    Real input feature vectors are bag-of-words style and exhibit two kinds
    of skew, both of which matter to GNNIE:

    * **row skew** — vertices differ in how many nonzeros they have (Fig. 2's
      sparse "Region A" vs. denser "Region B"), the source of the
      rabbit/turtle workload disparity.  Each row's nonzero count is drawn
      from a log-normal distribution centered on the target density.
    * **column skew** — feature positions differ wildly in popularity (word
      frequencies are Zipfian), so the k-element blocks that GNNIE maps to
      CPE rows carry very different numbers of nonzeros, which is what makes
      the position-based baseline mapping imbalanced (Fig. 16).  Column
      indices are drawn from a Zipf-like distribution with exponent
      ``column_skew``.

    Args:
        num_vertices: Number of rows.
        feature_length: Number of columns.
        sparsity: Target fraction of zeros over the whole matrix (e.g.
            0.9873 for Cora).
        seed: RNG seed.
        sparsity_spread: Log-normal sigma of the per-row nonzero counts.
        value_scale: Scale of the nonzero values.
        column_skew: Zipf exponent of the column-popularity distribution
            (0 = uniform columns).
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    rng = np.random.default_rng(seed)
    mean_nonzeros = max(1.0, (1.0 - sparsity) * feature_length)
    row_nonzeros = rng.lognormal(
        mean=np.log(mean_nonzeros), sigma=sparsity_spread, size=num_vertices
    )
    row_nonzeros = np.clip(np.round(row_nonzeros), 1, feature_length).astype(np.int64)
    # Rescale so that the matrix-wide sparsity matches the target.
    target_total = int(round((1.0 - sparsity) * num_vertices * feature_length))
    current_total = int(row_nonzeros.sum())
    if current_total > 0 and target_total > 0:
        scaled = np.clip(
            np.round(row_nonzeros * (target_total / current_total)), 1, feature_length
        ).astype(np.int64)
        row_nonzeros = scaled
    # Zipf-like column popularity: columns are shuffled so hot columns are
    # spread over the whole index range rather than clustered at the front
    # (real vocabularies are not sorted by frequency) but block-to-block
    # density still varies strongly.
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


def block_nonzero_counts(matrix: np.ndarray, block_size: int) -> np.ndarray:
    """Nonzero count of every k-element block of every feature vector.

    Splitting the feature dimension into ``block_size``-element blocks is how
    GNNIE maps Weighting onto CPE rows (Section IV-A).  The returned array
    has shape ``(num_vertices, num_blocks)`` where ``num_blocks =
    ceil(F / block_size)``; the last block of each row may be shorter.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    num_vertices, feature_length = matrix.shape
    num_blocks = -(-feature_length // block_size)
    padded_length = num_blocks * block_size
    padded = np.zeros((num_vertices, padded_length), dtype=bool)
    padded[:, :feature_length] = matrix != 0
    return padded.reshape(num_vertices, num_blocks, block_size).sum(axis=2)
