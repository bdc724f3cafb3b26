"""Cache policy definitions and result records for Aggregation caching.

GNNIE's graph-specific caching (paper, Section VI) keeps a set of vertices —
the densest first — resident in the input buffer, processes the edges of the
induced subgraph, and evicts vertices whose unprocessed-edge counter α has
fallen below the threshold γ, replacing them with the next vertices of the
descending-degree DRAM stream.  All DRAM fetches are sequential; every
random access is confined to the on-chip buffer.

This module holds the policy/record dataclasses; the simulation loop lives in
:mod:`repro.cache.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.hierarchy import HierarchyResult
    from repro.cache.trace import VertexAccessTrace

__all__ = ["CachePolicyConfig", "CacheSimulationResult"]


@dataclass(frozen=True)
class CachePolicyConfig:
    """Parameters of the degree-aware caching policy.

    Attributes:
        capacity_vertices: Vertices that fit in the input buffer (derived
            from the buffer capacity and the per-vertex record size).
        gamma: Eviction threshold on the unprocessed-edge counter α; the
            paper uses a static γ = 5.
        replacement_count: Number of vertices replaced per iteration (r).
    """

    capacity_vertices: int
    gamma: int = 5
    replacement_count: int | None = None

    def __post_init__(self) -> None:
        if self.capacity_vertices <= 0:
            raise ValueError("capacity_vertices must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.replacement_count is not None and self.replacement_count <= 0:
            raise ValueError("replacement_count must be positive when given")

    @property
    def effective_replacement_count(self) -> int:
        """r; defaults to one eighth of the buffer capacity."""
        if self.replacement_count is not None:
            return self.replacement_count
        return max(1, self.capacity_vertices // 8)


def _column() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class CacheSimulationResult:
    """Aggregate outcome of simulating a caching policy on one graph.

    The per-iteration log is four aligned ``int64`` columns with one entry
    per cached-subgraph iteration: the Round it ran in, the edges it
    processed, the most edges any single vertex accumulated, and the
    vertices resident after its replacements.  A simulator sets them once,
    when its run ends (:meth:`log_iterations`), so pricing reads them
    directly however many configurations share the simulation.
    """

    num_rounds: int = 0
    total_edges_processed: int = 0
    vertex_fetches: int = 0
    sequential_fetch_bytes: int = 0
    random_accesses: int = 0
    random_access_bytes: int = 0
    alpha_writeback_bytes: int = 0
    deadlock_events: int = 0
    round_index: np.ndarray = field(default_factory=_column)
    edges_processed: np.ndarray = field(default_factory=_column)
    max_edges_per_vertex: np.ndarray = field(default_factory=_column)
    resident_vertices: np.ndarray = field(default_factory=_column)
    #: Snapshot of the α values of all not-yet-finished vertices at the end
    #: of each round (Fig. 10 histograms).
    alpha_round_snapshots: list[np.ndarray] = field(default_factory=list)
    #: Miss/eviction trace of the run (only collected when requested, e.g.
    #: when a miss-path hierarchy is configured).
    trace: "VertexAccessTrace | None" = None
    #: Outcome of filtering ``trace`` through the miss-path hierarchy.
    miss_path: "HierarchyResult | None" = None

    @property
    def num_iterations(self) -> int:
        return int(self.edges_processed.size)

    def log_iterations(self, rows: list[tuple[int, int, int, int]]) -> None:
        """Store ``(round_index, edges_processed, max_edges_per_vertex,
        resident_vertices)`` rows, one per iteration, as the four columns."""
        columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
        (
            self.round_index,
            self.edges_processed,
            self.max_edges_per_vertex,
            self.resident_vertices,
        ) = columns

    @property
    def random_accesses_avoided(self) -> int:
        """Random accesses recovered on chip by the miss-path hierarchy."""
        return self.miss_path.random_accesses_avoided if self.miss_path else 0

    @property
    def random_bytes_avoided(self) -> int:
        return self.miss_path.random_bytes_avoided if self.miss_path else 0

    @property
    def net_random_accesses(self) -> int:
        """Random DRAM accesses that survive the miss-path hierarchy."""
        return max(0, self.random_accesses - self.random_accesses_avoided)

    @property
    def net_random_access_bytes(self) -> int:
        return max(0, self.random_access_bytes - self.random_bytes_avoided)

    @property
    def total_dram_accesses(self) -> int:
        """Vertex fetches plus net random accesses (the Fig. 11 y-axis).

        Without a miss-path hierarchy the net equals the gross count, so the
        seed semantics are unchanged; with one attached this stays
        consistent with the phase model, which also charges net traffic.
        """
        return self.vertex_fetches + self.net_random_accesses

    @property
    def total_dram_bytes(self) -> int:
        prefetch = self.miss_path.sequential_prefetch_bytes if self.miss_path else 0
        return (
            self.sequential_fetch_bytes
            + self.net_random_access_bytes
            + prefetch
            + self.alpha_writeback_bytes
        )
