"""Multi-chip edge-cut graph partitioning for ``repro.scaleout``.

Assigns every vertex to one of N simulated GNNIE chips, then splits the
adjacency in one pass over its stored edges: each part's induced CSR (the
chip's compute graph), the directed edges whose endpoints land on
different chips, and each chip's halo (the remote features every
aggregation layer must receive).  The input buffer's vertex capacity is
derived in :func:`repro.sim.aggregation_sim.input_buffer_capacity`, not
here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphPartition", "PARTITION_METHODS", "check_partition_args", "partition_graph"]

#: Supported chip-partitioning strategies, in documentation order.
PARTITION_METHODS: tuple[str, ...] = ("chunk", "balanced")


@dataclass(frozen=True)
class GraphPartition:
    """An edge-cut assignment of every vertex to one of ``num_parts`` chips,
    with every part's induced CSR, the cut and each part's halo.

    Attributes:
        num_parts: Number of chips (parts).  Parts may be empty when the
            graph has fewer vertices than parts.
        method: Partitioning strategy that produced the assignment (one of
            :data:`PARTITION_METHODS`).
        assignments: ``(V,)`` int64 array mapping vertex id → owning part.
        parts: Per-part sorted arrays of owned vertex ids.
        cut_edges: Number of stored *directed* edges whose endpoints live on
            different parts (self-loops are never cut).
        halo_counts: Per-part count of *distinct* remote vertices whose
            features the part must receive to aggregate its owned vertices
            (its halo).
        adjacencies: Per-part CSR of the subgraph induced by the owned
            vertices, relabelled ``0..k-1`` in vertex-id order: row ``i`` is
            ``parts[p][i]``, its neighbours sorted by local id, duplicate
            edges and self-loops kept.
    """

    num_parts: int
    method: str
    assignments: np.ndarray = field(repr=False)
    parts: tuple[np.ndarray, ...] = field(repr=False)
    cut_edges: int
    halo_counts: tuple[int, ...]
    adjacencies: tuple[CSRGraph, ...] = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return int(self.assignments.size)

    def part_sizes(self) -> tuple[int, ...]:
        """Owned-vertex count of every part."""
        return tuple(int(part.size) for part in self.parts)

    def imbalance(self) -> float:
        """``max(part size) / (V / num_parts)`` — 1.0 is perfect.

        Divides by the ideal share ``V / num_parts``, empty parts included,
        so an empty part still shows up as imbalance rather than hiding it.
        """
        if self.num_vertices == 0 or self.num_parts == 0:
            return 1.0
        ideal = self.num_vertices / self.num_parts
        return max(self.part_sizes()) / ideal

    def total_halo_vertices(self) -> int:
        """Sum of per-part halo sizes (remote features received, in vertices)."""
        return int(sum(self.halo_counts))


def check_partition_args(num_parts: int, method: str) -> None:
    """Raise ``ValueError`` unless a graph can be split into ``num_parts``
    parts by ``method``."""
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r}; expected one of {PARTITION_METHODS}"
        )


def partition_graph(
    adjacency: CSRGraph, num_parts: int, *, method: str = "chunk"
) -> GraphPartition:
    """Partition a CSR adjacency across ``num_parts`` chips (edge-cut).

    Methods:
        ``"chunk"``: contiguous vertex-id ranges via ``np.array_split`` —
            the degenerate-but-deterministic baseline.
        ``"balanced"``: deterministic greedy degree balancing — vertices in
            descending-degree order (ties by vertex id) each go to the part
            with the least accumulated degree (ties toward fewer owned
            vertices, then by part index), evening out aggregation work at
            the cost of locality.

    After assigning, one pass over the stored edges yields every part's
    owned vertices, induced CSR and halo, and the cut-edge count.  The edge
    work is one sort of the kept edges, however many parts there are, plus
    a ``num_parts × V`` boolean table that counts the halos (see
    :func:`_split`).  Both methods are pure functions of the graph content,
    so partitions are byte-reproducible across processes.
    """
    check_partition_args(num_parts, method)
    num_vertices = adjacency.num_vertices
    assignments = np.zeros(num_vertices, dtype=np.int64)
    if method == "chunk":
        for part, chunk in enumerate(
            np.array_split(np.arange(num_vertices, dtype=np.int64), num_parts)
        ):
            assignments[chunk] = part
    else:  # balanced
        degrees = adjacency.degrees()
        # Descending degree, ascending vertex id on ties: np.argsort is
        # stable with kind="stable", so sorting -degrees keeps id order.
        order = np.argsort(-degrees, kind="stable")
        # Least-loaded part; break degree ties toward the emptier part so
        # zero-degree tails still spread evenly, then by part index.  That
        # is the order of (load, count, part) tuples: the heap's top.
        heap = [(0, 0, part) for part in range(num_parts)]
        owners = []
        for degree in degrees[order].tolist():
            load, count, part = heap[0]
            owners.append(part)
            heapq.heapreplace(heap, (load + degree, count + 1, part))
        assignments[order] = owners
    return _split(adjacency, assignments, num_parts, method)


def _split(
    adjacency: CSRGraph, assignments: np.ndarray, num_parts: int, method: str
) -> GraphPartition:
    """One pass over the stored edges: parts, cut edges, halos, chip CSRs.

    A directed stored edge ``(src, dst)`` is *cut* when its endpoints live on
    different parts; self-loops share a part by construction and are never
    cut.  The halo of part ``p`` is the set of distinct remote vertices
    ``dst`` appearing as a neighbour of some owned ``src`` — the features
    ``p`` must receive before it can aggregate.  Every other edge belongs to
    its part's induced CSR.

    The halos are counted in a ``num_parts × V`` boolean table, not by
    sorting the cut: marking ``(part of src, dst)`` for every stored edge
    and then clearing each vertex's own part leaves exactly the cut's
    distinct (owning part, remote vertex) pairs.  The table takes
    ``num_parts × V`` bytes, no more than one int64 array over the stored
    edges (of which this pass builds several) whenever ``num_parts`` is at
    most 8 × the average stored degree ``E / V``.  The one sort is of the
    kept edges' (row, neighbour) keys, which gives every chip row sorted
    neighbours even when the parent CSR's rows are unsorted.
    """
    num_vertices = adjacency.num_vertices
    # Vertices grouped by part, in id order within a part (a stable sort),
    # and each vertex's row in its part's CSR.
    grouped = np.argsort(assignments, kind="stable")
    bounds = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(np.bincount(assignments, minlength=num_parts), out=bounds[1:])
    position = np.empty(num_vertices, dtype=np.int64)
    position[grouped] = np.arange(num_vertices, dtype=np.int64)
    local = position - bounds[assignments]

    degrees = adjacency.degrees()
    part_of = assignments.astype(np.min_scalar_type(num_parts - 1))
    src_part = np.repeat(part_of, degrees)
    dst = adjacency.indices
    kept = src_part == part_of[dst]
    # reached[p, v]: an owned vertex of part p has neighbour v.  Clearing
    # every vertex's own part leaves the (owning part, remote vertex) pairs
    # of the cut, so each row counts one part's halo.
    reached = np.zeros((num_parts, num_vertices), dtype=bool)
    reached[src_part, dst] = True
    reached[part_of, np.arange(num_vertices)] = False
    halo_counts = np.count_nonzero(reached, axis=1)

    # Kept edges ordered by (part, local row, local neighbour): the grouped
    # position of the row already orders parts and rows, so one scalar sort
    # of position × V + neighbour lays out every part's CSR back to back.
    # Row r holds the keys in [r × V, (r + 1) × V): a search finds where it
    # starts, and its neighbours are its keys less r × V.
    rows = np.repeat(position, degrees)[kept]
    keys = np.sort(rows * np.int64(num_vertices) + local[dst[kept]])
    row_bases = np.arange(num_vertices + 1, dtype=np.int64) * num_vertices
    row_starts = keys.searchsorted(row_bases)
    neighbours = keys - np.repeat(row_bases[:-1], np.diff(row_starts))
    parts = []
    adjacencies = []
    for part in range(num_parts):
        first, last = int(bounds[part]), int(bounds[part + 1])
        indptr = row_starts[first : last + 1]
        parts.append(grouped[first:last])
        adjacencies.append(
            CSRGraph(
                indptr=indptr - indptr[0],
                indices=neighbours[indptr[0] : indptr[-1]],
            )
        )
    return GraphPartition(
        num_parts=num_parts,
        method=method,
        assignments=assignments,
        parts=tuple(parts),
        cut_edges=int(kept.size - np.count_nonzero(kept)),
        halo_counts=tuple(int(count) for count in halo_counts),
        adjacencies=tuple(adjacencies),
    )
