"""Vertex-featured graph container used throughout the reproduction.

A :class:`Graph` bundles a CSR adjacency (:class:`~repro.graph.csr.CSRGraph`)
with a dense vertex feature matrix, optional labels, and a name — the same
information a PyTorch Geometric ``Data`` object would carry for the benchmark
datasets in Table II of the paper.  Inference reads only the adjacency and
the features, so labels may be deferred to a builder that runs on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass(eq=False)
class Graph:
    """A graph with dense node features and optional labels.

    Graphs compare by identity: two builds with equal content are distinct
    graphs, each with its own pricing memos.

    Attributes:
        adjacency: CSR adjacency structure (symmetric storage for the
            undirected benchmark graphs).
        features: ``(num_vertices, feature_length)`` float array of input
            vertex feature vectors ``h^0_i``.  These are highly sparse for
            the citation datasets (Cora 98.73% zero, Table II).
        labels: Optional ``(num_vertices,)`` integer class labels or
            ``(num_vertices, num_labels)`` multi-label indicator matrix,
            validated when given and built by ``label_builder`` on first
            read when deferred.
        name: Dataset name used in reports.
        num_label_classes: Class count; derived from ``labels`` when 0.
        label_builder: Zero-argument callable returning the labels, run on
            the first read of ``labels`` and then dropped.  It is pickled
            as is, so it must be picklable (a ``functools.partial`` of a
            module-level function).
        pricing: The graph's :class:`~repro.sim.batch.GraphPricingContext`,
            created on first use by :func:`repro.sim.batch.pricing_context`.
            A per-process cache: it is never printed or pickled.
    """

    adjacency: CSRGraph
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "graph"
    num_label_classes: int = field(default=0)
    label_builder: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False)
    pricing: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D (num_vertices, F) array")
        if self.features.shape[0] != self.adjacency.num_vertices:
            raise ValueError(
                f"features has {self.features.shape[0]} rows but the adjacency has "
                f"{self.adjacency.num_vertices} vertices"
            )
        if self._labels is not None:
            self._labels = self._checked_labels(self._labels)

    def _checked_labels(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels)
        if labels.shape[0] != self.adjacency.num_vertices:
            raise ValueError("labels must have one entry per vertex")
        if self.num_label_classes == 0:
            if labels.ndim == 1:
                self.num_label_classes = int(labels.max()) + 1 if labels.size else 0
            else:
                self.num_label_classes = int(labels.shape[1])
        return labels

    def _read_labels(self) -> Optional[np.ndarray]:
        """Vertex labels, built by ``label_builder`` on first read and cached.

        ``None`` when the graph has neither labels nor a builder.  Inference
        never reads them; the Fig. 1 accuracy study and the examples do.
        """
        if self.label_builder is not None:
            self._labels = self._checked_labels(self.label_builder())
            self.label_builder = None
        return self._labels

    def _write_labels(self, labels: Optional[np.ndarray]) -> None:
        # The dataclass __init__ assigns here before it sets label_builder;
        # a later assignment replaces any deferred build.
        self._labels = labels
        self.label_builder = None

    def __getstate__(self) -> dict:
        # The pricing context holds a weak reference back to this graph and
        # per-process memos; an unpickled copy rebuilds it on demand.  A
        # deferred label builder travels unrun.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Graph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, F={self.feature_length})"
        )


# ``labels`` stays a dataclass field (keyword, default and __init__ order)
# but reads and writes go through the deferred-build accessors above.
Graph.labels = property(Graph._read_labels, Graph._write_labels)  # type: ignore[assignment]
