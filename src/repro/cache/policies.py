"""Every cache policy the repo compares, behind one entry point.

GNNIE's degree-aware policy (:func:`~repro.cache.controller.degree_aware_walk`,
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
the same Aggregation cycle model and benchmarks.  :func:`miss_trace` runs
an id-order policy and also hands back its misses and evictions as two
arrays, which the miss-path ablation (:mod:`repro.cache.miss_path`) filters.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.controller import degree_aware_walk
from repro.cache.policy import CacheSimulationResult
from repro.graph.csr import CSRGraph

__all__ = ["EVICT", "ID_ORDER_POLICIES", "MISS", "POLICY_NAMES", "miss_trace", "simulate_policy"]

#: Kinds of the events :func:`miss_trace` hands back.
MISS: int = 0
EVICT: int = 1

#: Buffer eviction of each id-order baseline.
_EVICTION = {"lru": "lru", "mru": "mru", "static_partition": "lru", "vertex_order": "fifo"}

#: The id-order baselines: the policies that miss.
ID_ORDER_POLICIES: tuple[str, ...] = tuple(sorted(_EVICTION))

#: Every policy :func:`simulate_policy` accepts.
POLICY_NAMES: tuple[str, ...] = ("degree_aware", *ID_ORDER_POLICIES)


def _check(policy: str, capacity_vertices: int) -> None:
    if policy not in POLICY_NAMES:
        raise KeyError(f"unknown cache policy {policy!r}; known: {list(POLICY_NAMES)}")
    if capacity_vertices <= 0:
        raise ValueError("capacity_vertices must be positive")


def simulate_policy(
    policy: str,
    adjacency: CSRGraph,
    capacity_vertices: int,
    *,
    bytes_per_vertex: int = 256,
    gamma: int = 5,
    index_bytes: int,
) -> CacheSimulationResult:
    """Simulate one named cache policy over Aggregation on ``adjacency``.

    ``gamma`` and ``index_bytes`` (the width of the α an unfinished vertex
    writes back) only matter to ``degree_aware``, which reads its edge list
    straight from ``adjacency``.
    """
    _check(policy, capacity_vertices)
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if policy == "degree_aware":
        return degree_aware_walk(
            adjacency, capacity_vertices, bytes_per_vertex, gamma, index_bytes
        )
    return _id_order_walk(policy, adjacency, capacity_vertices, bytes_per_vertex)


def miss_trace(
    policy: str,
    adjacency: CSRGraph,
    capacity_vertices: int,
    *,
    bytes_per_vertex: int = 256,
) -> tuple[CacheSimulationResult, np.ndarray, np.ndarray]:
    """Simulate the id-order ``policy`` as :func:`simulate_policy` does, and
    hand back its misses and evictions in order beside the result: each
    event's kind (:data:`MISS` or :data:`EVICT`, ``int8``) and vertex
    (``int64``).

    Raises :class:`ValueError` for ``degree_aware``: every one of its
    fetches is sequential, so it has no miss to trace.
    """
    _check(policy, capacity_vertices)
    if policy not in ID_ORDER_POLICIES:
        raise ValueError(
            f"{policy!r} never misses; only the id-order policies "
            f"{list(ID_ORDER_POLICIES)} have a miss trace"
        )
    events: list[tuple[int, int]] = []
    result = _id_order_walk(policy, adjacency, capacity_vertices, bytes_per_vertex, events)
    kinds = np.array([kind for kind, _ in events], dtype=np.int8)
    vertices = np.array([vertex for _, vertex in events], dtype=np.int64)
    return result, kinds, vertices


def _id_order_walk(
    policy: str,
    adjacency: CSRGraph,
    capacity: int,
    bytes_per_vertex: int,
    events: list[tuple[int, int]] | None = None,
) -> CacheSimulationResult:
    """Process vertices in id order through the policy's vertex buffer.

    Every vertex streams in sequentially; every neighbor access that misses
    the buffer costs one random DRAM access and admits the neighbor.  Pinned
    vertices never leave the buffer and do not occupy the replaceable
    capacity.  LRU and MRU refresh a resident vertex on every access; FIFO
    does not.  ``events`` receives every miss and eviction in order.
    """
    eviction = _EVICTION[policy]
    pinned: set[int] = set()
    if policy == "static_partition":
        hubs = np.argsort(-adjacency.degrees(), kind="stable")[: max(1, capacity - 1)]
        pinned = set(hubs.tolist())
    replaceable_capacity = max(1, capacity - len(pinned))
    refresh = eviction != "fifo"
    evict_newest = eviction == "mru"
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
            if events is not None:
                events.append((EVICT, evicted))
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
            if events is not None:
                events.append((MISS, neighbor))
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
    return result
