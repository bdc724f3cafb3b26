"""DiffPool hierarchical pooling [Ying et al. 2018].

DiffPool combines two GNNs per pooling level (paper, Section II, Eqs. (3)–(4)):

* an **embedding GNN** producing vertex embeddings ``Z^{l-1} =
  GNN_embed(A^{l-1}, X^{l-1})``, and
* a **pooling GNN** whose softmax output is the cluster-assignment matrix
  ``S^{l-1} = softmax(GNN_pool(A^{l-1}, X^{l-1}))``.

The coarsened graph for the next level is then
``A^l = Sᵀ A^{l-1} S`` and ``X^l = Sᵀ Z^{l-1}``; the number of clusters is
fixed at inference time.  The paper's Table III evaluates DiffPool with GCN
layers for both the pooling and the embedding GNN, which is what
:class:`DiffPoolLevel` defaults to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.models.gcn import GCNLayer
from repro.models.layers import softmax

__all__ = ["DiffPoolLevel", "DiffPoolOutput", "DiffPoolModel"]


@dataclass
class DiffPoolOutput:
    """Result of one DiffPool coarsening level."""

    coarsened_adjacency: np.ndarray
    coarsened_features: np.ndarray
    assignment: np.ndarray
    embeddings: np.ndarray

    @property
    def num_clusters(self) -> int:
        return int(self.coarsened_features.shape[0])


class DiffPoolLevel:
    """One DiffPool level: embedding GNN + pooling GNN + coarsening."""

    model_name = "DiffPool"

    def __init__(
        self,
        in_features: int,
        embed_features: int,
        num_clusters: int,
        *,
        seed: int = 0,
    ) -> None:
        if num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        self.in_features = int(in_features)
        self.embed_features = int(embed_features)
        self.num_clusters = int(num_clusters)
        self.embedding_gnn = GCNLayer(in_features, embed_features, activation="relu", seed=seed)
        self.pooling_gnn = GCNLayer(in_features, num_clusters, activation="none", seed=seed + 50)

    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> DiffPoolOutput:
        """Run both GNNs and produce the coarsened graph for the next level."""
        embeddings = self.embedding_gnn.forward(adjacency, features)  # Z
        assignment_logits = self.pooling_gnn.forward(adjacency, features)
        assignment = softmax(assignment_logits, axis=-1)  # S, rows sum to 1

        dense_adjacency = adjacency.to_dense()
        coarsened_adjacency = assignment.T @ dense_adjacency @ assignment  # A^l
        coarsened_features = assignment.T @ embeddings  # X^l
        return DiffPoolOutput(
            coarsened_adjacency=coarsened_adjacency,
            coarsened_features=coarsened_features,
            assignment=assignment,
            embeddings=embeddings,
        )


class DiffPoolModel:
    """A GNN stack followed by one DiffPool coarsening level.

    This mirrors the paper's evaluation configuration, where DiffPool's
    GCN_pool and GCN_embedding layers both have width 128 (Table III).
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int = 128,
        *,
        num_clusters: int | None = None,
        seed: int = 0,
    ) -> None:
        self.level = DiffPoolLevel(
            in_features,
            hidden_features,
            num_clusters if num_clusters is not None else max(2, hidden_features // 4),
            seed=seed,
        )
        self.name = "DiffPool"

    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> DiffPoolOutput:
        return self.level.forward(adjacency, features)
