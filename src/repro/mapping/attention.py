"""GAT attention mapping (paper, Sections V-A and V-B).

GATs compute an attention coefficient per edge,
``α_ij = softmax_j(LeakyReLU(aᵀ[ηw_i || ηw_j]))``.  GNNIE reorders the score
computation so that each vertex computes two scalars exactly once —
``e_{i,1} = a₁ᵀ ηw_i`` (used at vertex i) and ``e_{i,2} = a₂ᵀ ηw_i`` (used by
every vertex that has i as a neighbor) — making the compute-bound part of
attention linear in the graph size, O(|V| + |E|) instead of O(|V|·|E|).

The per-vertex dot products are mapped like Weighting: the attention
subvector a₁ (then a₂) stays stationary in one CPE scratchpad, the weighted
features stream through in G-element chunks, and the MPEs accumulate the
per-vertex scalar.  Because ηw and a are dense, no load balancing is needed.

This module provides the cycle/traffic model of that phase plus a functional
mirror used to verify agreement with the reference GAT layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import AcceleratorConfig, GNNIETable, array_macs

__all__ = ["AttentionSchedule", "schedule_attention", "attention_terms_functional", "naive_attention_operations"]


@dataclass(frozen=True)
class AttentionSchedule:
    """Cycle/traffic model of the attention-vector multiplication phase.

    Attributes:
        num_vertices: Vertices processed.
        feature_length: F, length of ηw and of each attention subvector.
        chunk_size: G = ceil(F / num_cols), the block each CPE processes.
        vertices_per_column: Va = output-buffer vertices / num_cols.
        total_macs: 2·V·F multiply-accumulates (a₁ and a₂ passes).
        compute_cycles: Cycles with the dense workload spread over the array.
        output_bytes: e_{i,1}, e_{i,2} appended to each vertex's record.
    """

    num_vertices: int
    feature_length: int
    chunk_size: int
    vertices_per_column: int
    total_macs: int
    compute_cycles: int
    output_bytes: int


def schedule_attention(
    num_vertices: int, feature_length: int, config: AcceleratorConfig, table: GNNIETable
) -> AttentionSchedule:
    """Build the cycle model of the e_{i,1}/e_{i,2} computation phase."""
    if num_vertices < 0 or feature_length <= 0:
        raise ValueError("num_vertices must be >= 0 and feature_length positive")
    num_cols = table.num_cols
    value_bytes = table.bytes_per_value
    chunk = -(-feature_length // num_cols)
    vertices_per_column = max(
        1, config.output_buffer_bytes // max(1, num_cols * feature_length * value_bytes)
    )
    total_macs = 2 * num_vertices * feature_length
    # Dense and perfectly balanced: the array retires total_macs at its full
    # MAC bandwidth; the two sequential passes (a1 then a2) are already
    # included in total_macs.
    total_mac_bandwidth = float(array_macs(config, table))
    compute_cycles = int(np.ceil(total_macs / total_mac_bandwidth)) if total_macs else 0
    output_bytes = 2 * num_vertices * value_bytes
    return AttentionSchedule(
        num_vertices=int(num_vertices),
        feature_length=int(feature_length),
        chunk_size=int(chunk),
        vertices_per_column=int(vertices_per_column),
        total_macs=int(total_macs),
        compute_cycles=compute_cycles,
        output_bytes=int(output_bytes),
    )


def attention_terms_functional(
    weighted: np.ndarray,
    attention_left: np.ndarray,
    attention_right: np.ndarray,
    table: GNNIETable,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked computation of (e_{i,1}, e_{i,2}) mirroring the CPE mapping.

    The feature dimension is processed in G-element chunks, one per CPE
    column, with per-chunk partial dot products accumulated by the MPE — the
    result must equal the direct dot products, which the tests assert.
    """
    weighted = np.asarray(weighted, dtype=np.float64)
    attention_left = np.asarray(attention_left, dtype=np.float64).ravel()
    attention_right = np.asarray(attention_right, dtype=np.float64).ravel()
    if weighted.shape[1] != attention_left.size or weighted.shape[1] != attention_right.size:
        raise ValueError("attention vector length must match the feature length")
    feature_length = weighted.shape[1]
    chunk = -(-feature_length // table.num_cols)
    center = np.zeros(weighted.shape[0], dtype=np.float64)
    neighbor = np.zeros(weighted.shape[0], dtype=np.float64)
    for start in range(0, feature_length, chunk):
        end = min(start + chunk, feature_length)
        center += weighted[:, start:end] @ attention_left[start:end]
        neighbor += weighted[:, start:end] @ attention_right[start:end]
    return center, neighbor


def naive_attention_operations(num_vertices: int, num_edges: int, feature_length: int) -> int:
    """Operation count of the naive per-edge attention computation.

    The naive scheme recomputes a full 2F-length dot product per edge —
    O(|E|·F) multiplies — which is what GNNIE's reordering avoids.  Exposed
    so the ablation benchmark can report the reduction factor.
    """
    if min(num_vertices, num_edges, feature_length) < 0:
        raise ValueError("arguments must be non-negative")
    return int(num_edges * 2 * feature_length)
