"""Multi-chip edge-cut graph partitioning for ``repro.scaleout``.

Assigns every vertex to one of N simulated GNNIE chips and accounts the
directed edges whose endpoints land on different chips (the halo-exchange
traffic each aggregation layer must pay for).  The input buffer's vertex
capacity is derived in :func:`repro.sim.aggregation_sim.input_buffer_capacity`,
not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique

__all__ = ["GraphPartition", "PARTITION_METHODS", "partition_graph"]

#: Supported chip-partitioning strategies, in documentation order.
PARTITION_METHODS: tuple[str, ...] = ("chunk", "balanced")


@dataclass(frozen=True)
class GraphPartition:
    """An edge-cut assignment of every vertex to one of ``num_parts`` chips.

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
    """

    num_parts: int
    method: str
    assignments: np.ndarray = field(repr=False)
    parts: tuple[np.ndarray, ...] = field(repr=False)
    cut_edges: int
    halo_counts: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return int(self.assignments.size)

    def part_sizes(self) -> tuple[int, ...]:
        """Owned-vertex count of every part."""
        return tuple(int(part.size) for part in self.parts)

    def imbalance(self) -> float:
        """``max(part size) / mean(non-zero ideal share)`` — 1.0 is perfect.

        Uses the ideal share ``V / num_parts`` as the denominator so an
        empty part still shows up as imbalance rather than hiding it.
        """
        if self.num_vertices == 0 or self.num_parts == 0:
            return 1.0
        ideal = self.num_vertices / self.num_parts
        return max(self.part_sizes()) / ideal

    def total_halo_vertices(self) -> int:
        """Sum of per-part halo sizes (remote features received, in vertices)."""
        return int(sum(self.halo_counts))


def partition_graph(
    adjacency: CSRGraph, num_parts: int, *, method: str = "chunk"
) -> GraphPartition:
    """Partition a CSR adjacency across ``num_parts`` chips (edge-cut).

    Methods:
        ``"chunk"``: contiguous vertex-id ranges via ``np.array_split`` —
            the degenerate-but-deterministic baseline.
        ``"balanced"``: deterministic greedy degree balancing — vertices in
            descending-degree order (ties by vertex id) each go to the part
            with the least accumulated degree (ties by part index), evening
            out aggregation work at the cost of locality.

    Both methods are pure functions of the graph content, so partitions are
    byte-reproducible across processes.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r}; expected one of {PARTITION_METHODS}"
        )
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
        loads = np.zeros(num_parts, dtype=np.int64)
        counts = np.zeros(num_parts, dtype=np.int64)
        for vertex in order:
            # Least-loaded part; break degree ties toward the emptier part
            # so zero-degree tails still spread evenly, then by part index.
            part = int(np.lexsort((np.arange(num_parts), counts, loads))[0])
            assignments[vertex] = part
            loads[part] += degrees[vertex]
            counts[part] += 1
    parts = tuple(
        np.flatnonzero(assignments == part).astype(np.int64)
        for part in range(num_parts)
    )
    cut_edges, halo_counts = _cut_statistics(adjacency, assignments, num_parts)
    return GraphPartition(
        num_parts=num_parts,
        method=method,
        assignments=assignments,
        parts=parts,
        cut_edges=cut_edges,
        halo_counts=halo_counts,
    )


def _cut_statistics(
    adjacency: CSRGraph, assignments: np.ndarray, num_parts: int
) -> tuple[int, tuple[int, ...]]:
    """Vectorized cut-edge count and per-part distinct halo sizes.

    A directed stored edge ``(src, dst)`` is *cut* when its endpoints live on
    different parts; self-loops (``src == dst``) share a part by construction
    and are never cut.  The halo of part ``p`` is the set of distinct remote
    vertices ``dst`` appearing as a neighbor of some owned ``src`` — the
    features ``p`` must receive before it can aggregate.
    """
    if adjacency.num_edges == 0 or adjacency.num_vertices == 0:
        return 0, (0,) * num_parts
    src_all = np.repeat(
        np.arange(adjacency.num_vertices, dtype=np.int64), adjacency.degrees()
    )
    dst_all = adjacency.indices
    cross = assignments[src_all] != assignments[dst_all]
    cut_edges = int(np.count_nonzero(cross))
    if cut_edges == 0:
        return 0, (0,) * num_parts
    # Distinct (owning part, remote vertex) pairs, counted per part.
    keys = sorted_unique(
        assignments[src_all[cross]] * np.int64(adjacency.num_vertices)
        + dst_all[cross]
    )
    per_part = np.bincount(keys // adjacency.num_vertices, minlength=num_parts)
    return cut_edges, tuple(int(count) for count in per_part)
