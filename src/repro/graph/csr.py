"""Compressed Sparse Row (CSR) adjacency structure.

GNNIE stores the graph adjacency matrix in CSR form (paper, Section III and
Section VI): a *coordinate array* listing the neighbors of each vertex and an
*offset array* giving the starting position of each vertex's neighbor list.
This module provides an immutable CSR container with the query operations the
scheduler and the cache controller need (degrees, neighbor slices, edge
enumeration), a constructor from edge lists and a dense view for small
graphs.  Every CSR built from edges, by :meth:`CSRGraph.from_edge_list` or
by the topology generators, comes from one builder that sorts the edges
once as int64 keys.  Splitting a graph into per-chip induced subgraphs
lives in :func:`repro.graph.partition.partition_graph`.

All vertex indices are ``int``; arrays are NumPy ``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["CSRGraph", "sorted_unique"]

#: Vertex counts below this encode an edge ``(src, dst)`` as the int64 key
#: ``src * V + dst``: ``V * V`` stays under ``2**63``.
_KEYED_VERTEX_LIMIT = 3_037_000_499


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` in ascending order, like ``np.unique(values)``.

    One sort plus an adjacent-duplicate mask: ``np.unique`` without
    ``return_*`` options may take a hash path that is far slower on large
    int64 key arrays.
    """
    ordered = np.sort(values)
    if ordered.size == 0:
        return ordered
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


@dataclass(frozen=True, eq=False)
class CSRGraph:
    """Immutable CSR adjacency of an unweighted directed graph.

    For undirected graphs (the common case for the GNN benchmark datasets)
    each undirected edge is stored twice, once in each direction, so that
    ``neighbors(v)`` returns the full one-hop neighborhood of ``v``.
    Adjacencies compare (and hash) by identity, not by array content.

    Attributes:
        indptr: Offset array of length ``num_vertices + 1``.  The neighbors
            of vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
        indices: Coordinate array of length ``num_edges`` holding neighbor
            vertex ids.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise ValueError("indptr must contain at least one entry")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1]={int(indptr[-1])} must equal len(indices)={indices.size}"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise ValueError("indices contains vertex ids outside [0, num_vertices)")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        num_vertices: int,
        *,
        symmetric: bool = True,
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Args:
            edges: Iterable of ``(src, dst)`` pairs or an ``(E, 2)`` array.
            num_vertices: Total number of vertices.
            symmetric: If True, add the reverse of every edge so that the
                result is an undirected adjacency.
            deduplicate: If True, remove duplicate edges and self-loops that
                appear more than once (a single self-loop per vertex is kept
                if present in the input).

        The pairs are checked, then built by :meth:`_from_endpoints` in one
        sort.
        """
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        edge_array = edge_array.astype(np.int64, copy=False).reshape(-1, 2)
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            raise ValueError("edge endpoints must be in [0, num_vertices)")
        return cls._from_endpoints(
            edge_array[:, 0],
            edge_array[:, 1],
            num_vertices,
            symmetric=symmetric,
            deduplicate=deduplicate,
        )

    @classmethod
    def _from_endpoints(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        *,
        symmetric: bool = True,
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """The one CSR build: the edges ``(src[i], dst[i])`` in one sort.

        Each edge becomes the int64 key ``src * V + dst`` (and, when
        ``symmetric``, its reverse ``dst * V + src``), so sorting the keys
        orders the edges by (src, dst), which is the CSR layout:
        ``indices`` is each sorted key modulo V, and ``indptr[v]`` counts
        the keys below ``v * V``.  With ``deduplicate`` the one sort is
        :func:`sorted_unique`.  No ``(E, 2)`` array or reversed copy is
        built.  The endpoint columns are int64 ids in ``[0, V)``; the
        caller checks them.
        """
        num_vertices = int(num_vertices)
        if num_vertices >= _KEYED_VERTEX_LIMIT:  # pragma: no cover - huge-V fallback
            pairs = np.stack([src, dst], axis=1)
            if symmetric:
                pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
            if deduplicate:
                pairs = np.unique(pairs, axis=0)
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            counts = np.bincount(pairs[:, 0], minlength=num_vertices)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            return cls(indptr=indptr, indices=pairs[:, 1])
        scale = np.int64(num_vertices)
        keys = src * scale + dst
        if symmetric:
            keys = np.concatenate([keys, dst * scale + src])
        keys = sorted_unique(keys) if deduplicate else np.sort(keys)
        indptr = keys.searchsorted(np.arange(num_vertices + 1, dtype=np.int64) * scale)
        np.remainder(keys, scale, out=keys)
        return cls(indptr=indptr, indices=keys)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (2x undirected edge count)."""
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (== in-degree for symmetric storage)."""
        return np.diff(self.indptr)

    def degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbor ids of ``vertex`` as a read-only view."""
        self._check_vertex(vertex)
        start, end = self.indptr[vertex], self.indptr[vertex + 1]
        view = self.indices[start:end]
        view.flags.writeable = False
        return view

    def has_edge(self, src: int, dst: int) -> bool:
        return bool(np.any(self.neighbors(src) == dst))

    def sparsity(self) -> float:
        """Fraction of zero entries in the dense adjacency matrix."""
        total = self.num_vertices * self.num_vertices
        if total == 0:
            return 1.0
        return 1.0 - self.num_edges / total

    def max_degree(self) -> int:
        degrees = self.degrees()
        return int(degrees.max()) if degrees.size else 0

    def average_degree(self) -> float:
        degrees = self.degrees()
        return float(degrees.mean()) if degrees.size else 0.0

    # ------------------------------------------------------------------ #
    # Edge views
    # ------------------------------------------------------------------ #
    def edge_array(self) -> np.ndarray:
        """All stored directed edges as an ``(E, 2)`` array."""
        src = np.repeat(np.arange(self.num_vertices), self.degrees())
        return np.stack([src, self.indices], axis=1)

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (only for small graphs)."""
        dense = np.zeros((self.num_vertices, self.num_vertices), dtype=np.float64)
        edges = self.edge_array()
        dense[edges[:, 0], edges[:, 1]] = 1.0
        return dense

    def memory_footprint_bytes(self, bytes_per_entry: int = 4) -> int:
        """Storage size of the CSR arrays in DRAM."""
        return int((self.indptr.size + self.indices.size) * bytes_per_entry)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(
                f"vertex {vertex} out of range for graph with {self.num_vertices} vertices"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges}, "
            f"sparsity={self.sparsity():.4f})"
        )
