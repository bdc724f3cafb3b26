"""Vertex access/eviction traces of the id-order cache policies.

The miss-path hierarchy (:mod:`repro.cache.hierarchy`) is *trace driven*: the
id-order walk behind the LRU/MRU, static-partition and vertex-order
baselines records the chronological sequence of input-buffer **misses**
(neighbor accesses that go to DRAM as random accesses) and **evictions**
(vertex records leaving the input buffer) while it simulates the hit path
unchanged (:func:`~repro.cache.policies.miss_trace`).  The hierarchy then
filters that trace through victim cache / miss cache / stream buffer
structures to determine how many of the random DRAM accesses a cheap
miss-path structure would have recovered, without perturbing the baseline
simulation itself (the same stats-only augmentation shape as the
SimpleScalar DL1 miss-path studies).

GNNIE's degree-aware walk records no trace: every one of its fetches is
sequential, so it has no miss to filter.

The id-order policies lay vertex records out in DRAM in vertex-id order, so
a vertex's id is its position in the DRAM vertex stream, the layout stream
buffers prefetch along.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MISS", "EVICT", "TraceRecorder", "VertexAccessTrace"]

#: Event kinds recorded on the miss path.
MISS: int = 0
EVICT: int = 1


@dataclass(frozen=True)
class VertexAccessTrace:
    """Chronological miss/eviction trace of one id-order simulation.

    Attributes:
        kinds: ``int8`` array of event kinds (:data:`MISS` / :data:`EVICT`).
        vertices: Vertex id of each event, aligned with ``kinds``.
    """

    kinds: np.ndarray
    vertices: np.ndarray

    def __post_init__(self) -> None:
        kinds = np.asarray(self.kinds, dtype=np.int8)
        vertices = np.asarray(self.vertices, dtype=np.int64)
        if kinds.shape != vertices.shape:
            raise ValueError("kinds and vertices must have equal length")
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "vertices", vertices)

    @property
    def num_misses(self) -> int:
        return int(np.count_nonzero(self.kinds == MISS))

    @property
    def num_evictions(self) -> int:
        return int(np.count_nonzero(self.kinds == EVICT))

    def miss_vertices(self) -> np.ndarray:
        """Vertex ids of the misses, in trace order."""
        return self.vertices[self.kinds == MISS]


@dataclass
class TraceRecorder:
    """Collects the id-order walk's events while it runs.

    Appending to Python lists keeps the per-event overhead negligible on the
    hit path; :meth:`finish` converts to the packed NumPy arrays the
    vectorized mechanism filters consume.
    """

    _kinds: list[int] = field(default_factory=list)
    _vertices: list[int] = field(default_factory=list)

    def miss(self, vertex: int) -> None:
        self._kinds.append(MISS)
        self._vertices.append(int(vertex))

    def evict(self, vertex: int) -> None:
        self._kinds.append(EVICT)
        self._vertices.append(int(vertex))

    def finish(self) -> VertexAccessTrace:
        return VertexAccessTrace(
            kinds=np.asarray(self._kinds, dtype=np.int8),
            vertices=np.asarray(self._vertices, dtype=np.int64),
        )
