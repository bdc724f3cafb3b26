"""Graph Isomorphism Network convolution (GINConv) layer [Xu et al. 2019].

Layer rule (Table I / Eq. (1) of the paper):

    h^l_i = MLP^l( (1 + ε^l) · h^{l-1}_i + Σ_{j ∈ N(i)} h^{l-1}_j )

Unlike the other GNNs, GINConv aggregates *raw* (un-weighted) neighbor
features first and then applies a two-layer MLP; the paper's Table III
configuration uses a 128/128 MLP.  Equation (2) concatenates the per-layer
graph-level sums into a whole-graph representation; that readout is exposed
as :func:`gin_graph_readout`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.models.base import GNNLayer
from repro.models.layers import MLP, segment_sum

__all__ = ["GINConvLayer", "gin_graph_readout"]


class GINConvLayer(GNNLayer):
    """GINConv layer: sum aggregation followed by a two-layer MLP."""

    model_name = "GINConv"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        hidden_features: int | None = None,
        epsilon: float = 0.0,
        activation: str = "relu",
        seed: int = 0,
    ) -> None:
        super().__init__(in_features, out_features, activation=activation)
        hidden = hidden_features if hidden_features is not None else out_features
        self.epsilon = float(epsilon)
        self.mlp = MLP.create(
            [in_features, hidden, out_features],
            seed=seed,
            output_activation="relu" if activation == "relu" else "none",
        )

    def weight_matrices(self) -> list[np.ndarray]:
        return list(self.mlp.weights)

    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {features.shape[1]}"
            )
        edges = adjacency.edge_array()
        neighbor_sum = segment_sum(features[edges[:, 0]], edges[:, 1], adjacency.num_vertices)
        combined = (1.0 + self.epsilon) * features + neighbor_sum
        return self.mlp.forward(combined)


def gin_graph_readout(layer_outputs: list[np.ndarray]) -> np.ndarray:
    """Whole-graph representation per Eq. (2): concatenate per-layer sums.

    Args:
        layer_outputs: The per-layer vertex feature matrices h^1 ... h^L.

    Returns:
        A 1-D vector of length Σ_l F^l.
    """
    if not layer_outputs:
        raise ValueError("need at least one layer output")
    return np.concatenate([output.sum(axis=0) for output in layer_outputs])
