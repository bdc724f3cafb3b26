"""Sparse vertex-feature matrix utilities.

The Weighting scheduler needs per-vertex, per-block nonzero counts (to bin
workloads for the Flexible MAC architecture, paper Section IV-C).  This
module computes them from a dense NumPy feature matrix and holds the
sparse-aware generator used by the synthetic datasets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_sparse_features", "block_nonzero_counts"]


#: Doubles drawn from the generator at a time (512 KB).  A vectorized
#: block reads at most this many, so its arrays stay as small.
_STREAM_WINDOW = 1 << 16


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

    The matrix is, byte for byte, what a per-row loop of
    ``rng.choice(feature_length, count, replace=False, p=popularity)``
    followed by ``rng.uniform(0.1, value_scale, count)`` builds from the
    same generator.  Both calls only read the generator's stream of
    ``random()`` doubles, so each row is a function of its offset in that
    stream: :func:`_sample_rows` reads the stream ahead in one window and
    decides a whole block of rows at once wherever their offsets are
    known, replaying numpy's rounds for the rows that repeat a column.

    Args:
        num_vertices: Number of rows.
        feature_length: Number of columns.
        sparsity: Target fraction of zeros over the whole matrix (e.g.
            0.9873 for Cora).
        seed: RNG seed.
        sparsity_spread: Log-normal sigma of the per-row nonzero counts.
        value_scale: Upper bound of the nonzero values, which are uniform
            in ``[0.1, value_scale)``.
        column_skew: Zipf exponent of the column-popularity distribution
            (0 = uniform columns).
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    if not value_scale >= 0.1:
        raise ValueError("value_scale must be at least 0.1")
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
    _sample_rows(rng, row_nonzeros, popularity, value_scale, matrix)
    return matrix


class _DoubleStream:
    """The generator's ``random()`` doubles, read in order through a window.

    ``random(n)`` followed by ``random(m)`` yields the same doubles as one
    ``random(n + m)``, so drawing ahead and handing the doubles out later
    reads exactly the stream that the per-call draws would.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._window = np.empty(0)
        self._start = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` doubles, left unread."""
        end = self._start + count
        if end > self._window.size:
            fresh = self._rng.random(max(count, _STREAM_WINDOW))
            self._window = np.concatenate((self._window[self._start :], fresh))
            self._start, end = 0, count
        return self._window[self._start : end]

    def take(self, count: int) -> np.ndarray:
        """Read the next ``count`` doubles."""
        doubles = self.peek(count)
        self._start += count
        return doubles


def _sample_rows(
    rng: np.random.Generator,
    counts: np.ndarray,
    popularity: np.ndarray,
    value_scale: float,
    matrix: np.ndarray,
) -> None:
    """Fill ``matrix`` row by row as the ``choice`` + ``uniform`` loop would.

    ``rng.choice(F, k, replace=False, p=p)`` works in rounds.  Each round
    reads ``k - found`` doubles, maps them through the CDF of the columns
    not yet found (``cumsum``, divided by its last entry, then
    ``searchsorted(side="right")``), and keeps each new column's first
    occurrence.  ``rng.uniform(0.1, s, k)`` is ``0.1 + (s - 0.1) * random(k)``.
    So a row whose first-round columns are distinct reads exactly ``2k``
    doubles, and a block of such rows is decided by one ``searchsorted``
    over the shared first-round CDF.  A row that repeats a column is
    replayed on its own, and the block after it is sized from the rows
    that came out clean: twice their number, down to one row at a time
    where most rows repeat a column.
    """
    nonzero = np.count_nonzero(popularity)
    if counts.size and counts.max() > nonzero:
        raise ValueError("fewer columns have nonzero popularity than a row needs")
    cdf = np.cumsum(popularity)
    cdf /= cdf[-1]
    stream = _DoubleStream(rng)
    low, span = 0.1, value_scale - 0.1
    row, block = 0, 1
    while row < counts.size:
        clean = 0
        if block > 1:
            clean = _fill_distinct_rows(
                stream, counts[row : row + block], cdf, low, span, matrix[row:]
            )
            row += clean
        if clean < block and row < counts.size:
            count = int(counts[row])
            columns, distinct = _replay_choice(stream, count, cdf, popularity, nonzero)
            matrix[row, columns] = low + span * stream.take(count)
            clean += distinct
            row += 1
        block = max(1, 2 * clean)


def _fill_distinct_rows(
    stream: _DoubleStream,
    counts: np.ndarray,
    cdf: np.ndarray,
    low: float,
    span: float,
    rows: np.ndarray,
) -> int:
    """Fill the leading rows of a block whose first round draws no repeat.

    Every row is assumed to read ``2k`` doubles, which holds up to the
    first row that repeats a column; that row and the rows after it are
    left for the caller.  Returns the number of rows filled.
    """
    entry_ends = np.cumsum(counts)
    size = max(1, int(np.searchsorted(entry_ends, _STREAM_WINDOW // 2, side="right")))
    counts, entry_ends = counts[:size], entry_ends[:size]
    entries = int(entry_ends[-1])
    doubles = stream.peek(2 * entries)
    row_of = np.repeat(np.arange(size), counts)
    column_at = np.repeat(entry_ends - counts, counts) + np.arange(entries)
    columns = cdf.searchsorted(doubles[column_at], side="right")
    keys = row_of * cdf.size + columns
    keys.sort()
    repeats = keys[1:][keys[1:] == keys[:-1]]
    clean = int(repeats[0] // cdf.size) if repeats.size else size
    kept = int(entry_ends[clean - 1]) if clean else 0
    value_at = column_at[:kept] + np.repeat(counts[:clean], counts[:clean])
    rows[row_of[:kept], columns[:kept]] = low + span * doubles[value_at]
    stream.take(2 * kept)
    return clean


def _replay_choice(
    stream: _DoubleStream,
    count: int,
    cdf: np.ndarray,
    popularity: np.ndarray,
    nonzero: int,
) -> tuple[np.ndarray, bool]:
    """Columns of one ``choice(F, count, replace=False, p=popularity)`` call.

    Reads the call's doubles from ``stream`` round by round.  A column
    already found has zero mass in every later round, so no round draws
    it again, and the call's columns are the first occurrences of all its
    rounds' draws in draw order.  Also returns whether the first round's
    draws were distinct.
    """
    remaining = popularity.copy()
    drawn = cdf.searchsorted(stream.take(count), side="right")
    remaining[drawn] = 0.0
    missing = count - (nonzero - np.count_nonzero(remaining))
    if not missing:
        return drawn, True
    rounds = [drawn]
    while missing:
        round_cdf = np.cumsum(remaining)
        round_cdf /= round_cdf[-1]
        drawn = round_cdf.searchsorted(stream.take(missing), side="right")
        rounds.append(drawn)
        remaining[drawn] = 0.0
        missing = count - (nonzero - np.count_nonzero(remaining))
    draws = np.concatenate(rounds)
    first = np.unique(draws, return_index=True)[1]
    first.sort()
    return draws[first], False


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
