"""Graph Attention Network (GAT) layer [Veličković et al. 2018].

Layer rule (Table I of the paper):

    e_ij  = LeakyReLU( aᵀ · [h_i W || h_j W] )
    α_ij  = softmax_j( e_ij )        (normalized over {i} ∪ N(i))
    h^l_i = σ( Σ_j α_ij · h_j W )

GNNIE's key GAT optimization (Section V-A) rewrites the attention score as
``e_ij = e_{i,1} + e_{j,2}`` with ``e_{i,1} = a₁ᵀ ηw_i`` and
``e_{j,2} = a₂ᵀ ηw_j``; each per-vertex term is computed exactly once,
turning the naive O(|V||E|) score computation into O(|V| + |E|).  This module
implements both the straightforward formulation and the reordered one so the
tests can verify they agree — that equivalence is the correctness basis of
the accelerator's attention mapping in :mod:`repro.mapping.attention`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.models.base import GNNLayer, apply_activation
from repro.models.layers import glorot_init, leaky_relu, segment_softmax, segment_sum

__all__ = ["GATLayer", "gat_attention_scores_naive", "gat_attention_scores_reordered"]


def gat_attention_scores_reordered(
    weighted: np.ndarray,
    attention_left: np.ndarray,
    attention_right: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Per-edge unnormalized attention scores via GNNIE's reordering.

    ``e_ij = LeakyReLU(e_{i,1} + e_{j,2})`` where the per-vertex terms
    ``e_{i,1} = a₁ᵀ ηw_i`` and ``e_{j,2} = a₂ᵀ ηw_j`` are each computed once
    (O(|V|) dot products) and then combined per edge (O(|E|) additions).

    Args:
        weighted: ``(V, F)`` weighted features ηw.
        attention_left: ``a₁`` of length F (multiplies the destination/center
            vertex term).
        attention_right: ``a₂`` of length F (multiplies the neighbor term).
        edges: ``(E, 2)`` array of ``(source j, destination i)`` pairs; the
            score of an edge attends destination ``i`` to source ``j``.
    """
    center_term = weighted @ attention_left  # e_{i,1} for every vertex
    neighbor_term = weighted @ attention_right  # e_{i,2} for every vertex
    scores = center_term[edges[:, 1]] + neighbor_term[edges[:, 0]]
    return leaky_relu(scores)


def gat_attention_scores_naive(
    weighted: np.ndarray,
    attention_left: np.ndarray,
    attention_right: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Per-edge scores computed the straightforward way (per-edge dot products).

    Used only as a reference in tests; cost is O(|E| · F).
    """
    scores = np.empty(edges.shape[0], dtype=np.float64)
    for index, (source, destination) in enumerate(edges):
        concatenated_score = (
            attention_left @ weighted[destination] + attention_right @ weighted[source]
        )
        scores[index] = concatenated_score
    return leaky_relu(scores)


class GATLayer(GNNLayer):
    """Single-head GAT layer with softmax attention normalization.

    The paper's evaluation uses single-head layers of width 128 (Table III);
    multi-head attention would simply replicate the same Weighting /
    Aggregation structure per head.
    """

    model_name = "GAT"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        activation: str = "relu",
        negative_slope: float = 0.2,
        seed: int = 0,
    ) -> None:
        super().__init__(in_features, out_features, activation=activation)
        self.negative_slope = negative_slope
        self.weight = glorot_init(in_features, out_features, seed=seed)
        attention = glorot_init(2 * out_features, 1, seed=seed + 1).ravel()
        #: a₁ — multiplies the center (destination) vertex's weighted features.
        self.attention_left = attention[:out_features]
        #: a₂ — multiplies the neighbor (source) vertex's weighted features.
        self.attention_right = attention[out_features:]

    def weight_matrices(self) -> list[np.ndarray]:
        return [self.weight]

    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {features.shape[1]}"
            )
        # Weighting.
        weighted = features @ self.weight

        # Attention over {i} ∪ N(i): include explicit self-loop edges.
        num_vertices = adjacency.num_vertices
        neighbor_edges = adjacency.edge_array()
        self_loops = np.stack([np.arange(num_vertices)] * 2, axis=1)
        edges = np.concatenate([neighbor_edges, self_loops], axis=0)

        scores = gat_attention_scores_reordered(
            weighted, self.attention_left, self.attention_right, edges
        )
        alphas = segment_softmax(scores, edges[:, 1], num_vertices)

        # Weighted aggregation Σ_j α_ij ηw_j.
        messages = weighted[edges[:, 0]] * alphas[:, None]
        aggregated = segment_sum(messages, edges[:, 1], num_vertices)
        return apply_activation(aggregated, self.activation)
