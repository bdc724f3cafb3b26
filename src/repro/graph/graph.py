"""Vertex-featured graph container used throughout the reproduction.

A :class:`Graph` bundles a CSR adjacency (:class:`~repro.graph.csr.CSRGraph`)
with a dense vertex feature matrix, optional labels, and a name — the same
information a PyTorch Geometric ``Data`` object would carry for the benchmark
datasets in Table II of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["Graph", "GraphStats"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a dataset graph (mirrors Table II columns)."""

    name: str
    num_vertices: int
    num_edges: int
    feature_length: int
    num_labels: int
    feature_sparsity: float
    adjacency_sparsity: float
    max_degree: int
    average_degree: float

    def as_row(self) -> dict[str, object]:
        """Row suitable for tabular reporting (Table II benchmark)."""
        return {
            "dataset": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "feature_length": self.feature_length,
            "labels": self.num_labels,
            "feature_sparsity_pct": round(100.0 * self.feature_sparsity, 2),
            "adjacency_sparsity_pct": round(100.0 * self.adjacency_sparsity, 4),
            "max_degree": self.max_degree,
            "avg_degree": round(self.average_degree, 2),
        }


@dataclass
class Graph:
    """A graph with dense node features and optional labels.

    Attributes:
        adjacency: CSR adjacency structure (symmetric storage for the
            undirected benchmark graphs).
        features: ``(num_vertices, feature_length)`` float array of input
            vertex feature vectors ``h^0_i``.  These are highly sparse for
            the citation datasets (Cora 98.73% zero, Table II).
        labels: Optional ``(num_vertices,)`` integer class labels or
            ``(num_vertices, num_labels)`` multi-label indicator matrix.
        name: Dataset name used in reports.
        pricing: The graph's :class:`~repro.sim.batch.GraphPricingContext`,
            created on first use by :func:`repro.sim.batch.pricing_context`.
            A per-process cache: it is never compared, printed or pickled.
    """

    adjacency: CSRGraph
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "graph"
    num_label_classes: int = field(default=0)
    pricing: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D (num_vertices, F) array")
        if self.features.shape[0] != self.adjacency.num_vertices:
            raise ValueError(
                f"features has {self.features.shape[0]} rows but the adjacency has "
                f"{self.adjacency.num_vertices} vertices"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape[0] != self.adjacency.num_vertices:
                raise ValueError("labels must have one entry per vertex")
            if self.num_label_classes == 0:
                if self.labels.ndim == 1:
                    self.num_label_classes = int(self.labels.max()) + 1 if self.labels.size else 0
                else:
                    self.num_label_classes = int(self.labels.shape[1])

    def __getstate__(self) -> dict:
        # The pricing context holds a weak reference back to this graph and
        # per-process memos; an unpickled copy rebuilds it on demand.
        return {**self.__dict__, "pricing": None}

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.adjacency.num_vertices

    @property
    def num_edges(self) -> int:
        return self.adjacency.num_edges

    @property
    def feature_length(self) -> int:
        return int(self.features.shape[1])

    def degrees(self) -> np.ndarray:
        return self.adjacency.degrees()

    def feature_sparsity(self) -> float:
        """Fraction of zero entries in the input feature matrix."""
        total = self.features.size
        if total == 0:
            return 1.0
        return 1.0 - np.count_nonzero(self.features) / total

    def per_vertex_nonzeros(self) -> np.ndarray:
        """Nonzero count of each input feature vector (Fig. 2 histogram)."""
        return np.count_nonzero(self.features, axis=1)

    def stats(self) -> GraphStats:
        return GraphStats(
            name=self.name,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            feature_length=self.feature_length,
            num_labels=self.num_label_classes,
            feature_sparsity=self.feature_sparsity(),
            adjacency_sparsity=self.adjacency.sparsity(),
            max_degree=self.adjacency.max_degree(),
            average_degree=self.adjacency.average_degree(),
        )

    def memory_footprint_bytes(self, bytes_per_value: int = 4) -> int:
        """Rough DRAM footprint: CSR arrays + dense feature matrix."""
        return (
            self.adjacency.memory_footprint_bytes(bytes_per_value)
            + self.features.size * bytes_per_value
        )

    def with_features(self, features: np.ndarray) -> "Graph":
        """Return a copy of this graph with a different feature matrix."""
        return Graph(
            adjacency=self.adjacency,
            features=features,
            labels=self.labels,
            name=self.name,
            num_label_classes=self.num_label_classes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Graph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, F={self.feature_length})"
        )
