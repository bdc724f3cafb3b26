"""The result record of every Aggregation cache simulation.

GNNIE's graph-specific caching (paper, Section VI) keeps a set of vertices —
the densest first — resident in the input buffer, processes the edges of the
induced subgraph, and evicts vertices whose unprocessed-edge counter α has
fallen below the threshold γ, replacing them with the next vertices of the
descending-degree DRAM stream.  All DRAM fetches are sequential; every
random access is confined to the on-chip buffer.

This module holds :class:`CacheSimulationResult`, which every policy
returns; the degree-aware walk lives in :mod:`repro.cache.controller` and
:func:`~repro.cache.policies.simulate_policy` runs every policy by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CacheSimulationResult"]


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
    def total_dram_accesses(self) -> int:
        """Vertex fetches plus random accesses (the Fig. 11 y-axis)."""
        return self.vertex_fetches + self.random_accesses

    @property
    def total_dram_bytes(self) -> int:
        return (
            self.sequential_fetch_bytes
            + self.random_access_bytes
            + self.alpha_writeback_bytes
        )
