"""Common layer interface and shared helpers for the functional GNN models.

Every GNN in Table I of the paper performs the same two-phase computation per
layer:

* **Weighting** — multiply each vertex feature vector ``h^{l-1}_i`` by a dense
  weight matrix ``W^l``.
* **Aggregation** — combine the weighted vectors over each vertex's
  neighborhood (sum / mean / max / attention-weighted sum).

The classes here express that structure explicitly, so the accelerator
mapping can be cross-checked against a functional reference that computes
Weighting and Aggregation separately.  They carry no cost model: operation
counts come from the lowered plan (:mod:`repro.models.lowering`), priced by
the plan executors and :func:`repro.baselines.workload_from_plan`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graph.csr import CSRGraph
from repro.models.layers import relu, softmax

__all__ = [
    "GNNLayer",
    "GNNModel",
    "symmetric_normalization_coefficients",
    "apply_activation",
]


def symmetric_normalization_coefficients(adjacency: CSRGraph) -> np.ndarray:
    """Edge coefficients ``1 / sqrt(d_i d_j)`` for GCN aggregation.

    Degrees are taken over the self-loop-augmented graph, matching the
    normalized adjacency ``D^-1/2 (A + I) D^-1/2`` of Eq. (5).
    """
    degrees = adjacency.degrees().astype(np.float64) + 1.0  # + self loop
    inv_sqrt = 1.0 / np.sqrt(degrees)
    edges = adjacency.edge_array()
    return inv_sqrt[edges[:, 0]] * inv_sqrt[edges[:, 1]]


def apply_activation(values: np.ndarray, activation: str) -> np.ndarray:
    """Apply the layer activation σ (ReLU, softmax, or identity)."""
    if activation == "relu":
        return relu(values)
    if activation == "softmax":
        return softmax(values, axis=-1)
    if activation in ("none", "identity"):
        return values
    raise ValueError(f"unknown activation {activation!r}")


class GNNLayer(ABC):
    """One Weighting + Aggregation layer of a GNN."""

    #: Human-readable model family name ("GCN", "GAT", ...).
    model_name: str = "GNN"

    def __init__(self, in_features: int, out_features: int, *, activation: str = "relu") -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.activation = activation

    @abstractmethod
    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> np.ndarray:
        """Compute the layer output ``h^l`` from ``h^{l-1}``."""

    @abstractmethod
    def weight_matrices(self) -> list[np.ndarray]:
        """All dense weight matrices the layer multiplies features by."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(in={self.in_features}, out={self.out_features}, "
            f"activation={self.activation!r})"
        )


class GNNModel:
    """A stack of GNN layers applied sequentially to a graph."""

    def __init__(self, layers: list[GNNLayer], *, name: str | None = None) -> None:
        if not layers:
            raise ValueError("a GNN model needs at least one layer")
        for earlier, later in zip(layers, layers[1:]):
            if earlier.out_features != later.in_features:
                raise ValueError(
                    "layer dimensions do not chain: "
                    f"{earlier.out_features} -> {later.in_features}"
                )
        self.layers = list(layers)
        self.name = name or layers[0].model_name

    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> np.ndarray:
        """Run all layers and return the final vertex representations."""
        hidden = np.asarray(features, dtype=np.float64)
        for layer in self.layers:
            hidden = layer.forward(adjacency, hidden)
        return hidden

    def layer_outputs(self, adjacency: CSRGraph, features: np.ndarray) -> list[np.ndarray]:
        """Outputs of every layer (needed by GINConv's graph readout)."""
        outputs = []
        hidden = np.asarray(features, dtype=np.float64)
        for layer in self.layers:
            hidden = layer.forward(adjacency, hidden)
            outputs.append(hidden)
        return outputs

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = " -> ".join(
            [str(self.layers[0].in_features)] + [str(layer.out_features) for layer in self.layers]
        )
        return f"GNNModel(name={self.name!r}, dims={dims})"
