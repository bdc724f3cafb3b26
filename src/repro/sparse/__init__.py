"""Sparse-data utilities: RLC codec, sparse feature generation and block nonzero counts."""

from repro.sparse.feature_matrix import block_nonzero_counts, generate_sparse_features
from repro.sparse.rlc import (
    RLC_RUN_BITS,
    RLCEncoding,
    rlc_compressed_bits,
    rlc_decode,
    rlc_encode,
)

__all__ = [
    "block_nonzero_counts",
    "generate_sparse_features",
    "RLCEncoding",
    "rlc_encode",
    "rlc_decode",
    "rlc_compressed_bits",
    "RLC_RUN_BITS",
]
