"""Every cache policy the repo compares, behind one entry point.

GNNIE's degree-aware policy (:class:`~repro.cache.controller.DegreeAwareCacheController`,
Section VI) measures a vertex's *future* usefulness — its unprocessed-edge
count α — and keeps every DRAM access sequential.  The related-work
discussion (Section VII) contrasts it with history-based schemes such as
GRASP's most-recently-used management and with static frequency/partition
schemes, and Fig. 18 with no graph-specific caching at all.  Those four
baselines are one edge walk: vertices are processed in id order,
aggregating vertex ``v`` needs every neighbor's weighted features, and each
neighbor not resident in the vertex buffer costs one *random* DRAM access.
They differ only in how the buffer evicts:

* ``vertex_order`` — FIFO (Fig. 18's "no graph-specific caching" baseline),
* ``lru`` — least-recently-used,
* ``mru`` — most-recently-used (GRASP-style thrash protection),
* ``static_partition`` — the highest-degree vertices are pinned and the rest
  share the remaining slots under LRU; it favors hubs like GNNIE's policy
  but cannot adapt as their edges get used up.

:func:`simulate_policy` runs any of the five by name and returns a
:class:`~repro.cache.policy.CacheSimulationResult`, so they all plug into
the same Aggregation cycle model, miss-path hierarchy and benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.controller import DegreeAwareCacheController, UndirectedEdgeIndex
from repro.cache.policy import CachePolicyConfig, CacheSimulationResult
from repro.cache.trace import TraceRecorder
from repro.graph.csr import CSRGraph

__all__ = ["POLICY_NAMES", "simulate_policy"]

#: Buffer eviction of each id-order baseline.
_EVICTION = {"lru": "lru", "mru": "mru", "static_partition": "lru", "vertex_order": "fifo"}

#: Every policy :func:`simulate_policy` accepts.
POLICY_NAMES: tuple[str, ...] = ("degree_aware", *sorted(_EVICTION))


def simulate_policy(
    policy: str,
    adjacency: CSRGraph,
    capacity_vertices: int,
    *,
    bytes_per_vertex: int = 256,
    gamma: int = 5,
    collect_trace: bool = False,
    edge_index: UndirectedEdgeIndex | None = None,
) -> CacheSimulationResult:
    """Simulate one named cache policy over Aggregation on ``adjacency``.

    ``gamma`` and ``edge_index`` (a shared
    :class:`~repro.cache.controller.UndirectedEdgeIndex` of ``adjacency``)
    only matter to ``degree_aware``.  With ``collect_trace`` the
    miss/eviction sequence is recorded on ``result.trace`` for the
    miss-path hierarchy.
    """
    if policy == "degree_aware":
        controller = DegreeAwareCacheController(
            adjacency,
            CachePolicyConfig(capacity_vertices=capacity_vertices, gamma=gamma),
            bytes_per_vertex=bytes_per_vertex,
            edge_index=edge_index,
        )
        return controller.run(collect_trace=collect_trace)
    if policy not in _EVICTION:
        raise KeyError(f"unknown cache policy {policy!r}; known: {list(POLICY_NAMES)}")
    if capacity_vertices <= 0:
        raise ValueError("capacity_vertices must be positive")
    return _id_order_walk(
        policy, adjacency, capacity_vertices, bytes_per_vertex, collect_trace
    )


def _id_order_walk(
    policy: str,
    adjacency: CSRGraph,
    capacity: int,
    bytes_per_vertex: int,
    collect_trace: bool,
) -> CacheSimulationResult:
    """Process vertices in id order through the policy's vertex buffer.

    Every vertex streams in sequentially; every neighbor access that misses
    the buffer costs one random DRAM access and admits the neighbor.  Pinned
    vertices never leave the buffer and do not occupy the replaceable
    capacity.  LRU and MRU refresh a resident vertex on every access; FIFO
    does not.
    """
    eviction = _EVICTION[policy]
    pinned: set[int] = set()
    if policy == "static_partition":
        hubs = np.argsort(-adjacency.degrees(), kind="stable")[: max(1, capacity - 1)]
        pinned = set(hubs.tolist())
    replaceable_capacity = max(1, capacity - len(pinned))
    refresh = eviction != "fifo"
    evict_newest = eviction == "mru"
    recorder = (
        TraceRecorder(
            num_vertices=adjacency.num_vertices,
            bytes_per_vertex=bytes_per_vertex,
            policy=policy,
        )
        if collect_trace
        else None
    )
    result = CacheSimulationResult()
    buffer: OrderedDict[int, None] = OrderedDict()
    undirected_edges = 0

    def admit(vertex: int) -> None:
        if vertex in pinned:
            return
        if vertex in buffer:
            if refresh:
                buffer.move_to_end(vertex)
            return
        if len(buffer) >= replaceable_capacity:
            evicted, _ = buffer.popitem(last=evict_newest)
            if recorder is not None:
                recorder.evict(evicted)
        buffer[vertex] = None

    for vertex in range(adjacency.num_vertices):
        result.vertex_fetches += 1
        result.sequential_fetch_bytes += bytes_per_vertex
        admit(vertex)
        for neighbor in adjacency.neighbors(vertex):
            neighbor = int(neighbor)
            if neighbor > vertex:
                undirected_edges += 1
            if neighbor in pinned:
                continue
            if neighbor in buffer:
                if refresh:
                    buffer.move_to_end(neighbor)
                continue
            result.random_accesses += 1
            result.random_access_bytes += bytes_per_vertex
            if recorder is not None:
                recorder.miss(neighbor)
            admit(neighbor)

    result.num_rounds = 1
    result.total_edges_processed = undirected_edges
    result.log_iterations(
        [
            (
                1,
                undirected_edges,
                int(adjacency.max_degree()),
                min(capacity, adjacency.num_vertices),
            )
        ]
    )
    if recorder is not None:
        result.trace = recorder.finish()
    return result
