"""GNNIE's degree-aware cache walk for Aggregation (paper, Section VI).

:func:`degree_aware_walk` simulates GNNIE's policy.  Vertices are laid out
in DRAM in descending degree order (:func:`stream_order`) and streamed
sequentially into the input buffer; each iteration processes the
unprocessed edges of the resident subgraph, decrements the per-vertex
unprocessed-edge counter α, evicts up to ``r`` vertices whose α dropped
below γ, and fetches the next vertices of the stream.  When the stream is
exhausted a *Round* ends; a new Round re-streams the still-unfinished
vertices.  Every DRAM access is sequential.

The walk reads each undirected edge once from the CSR's upper triangle.
A Round fixes its fetch queue and lays out its remaining edges when it
starts, grouped by the queue position of each edge's later endpoint, so
every iteration decides one contiguous slice of edges and keeps at most
``capacity`` resident ids in dictionary order (see
:func:`degree_aware_walk` for why one slice per iteration is exact).

:func:`~repro.cache.policies.simulate_policy` runs it, and the id-order
baselines it is compared against, by name.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policy import CacheSimulationResult
from repro.graph.csr import CSRGraph
from repro.hw.config import GNNIE_TABLE

__all__ = [
    "MAX_ITERATIONS",
    "degree_aware_walk",
    "stream_order",
    "vertex_record_bytes",
]

#: Safety bound on the cached-subgraph iterations one run simulates.
MAX_ITERATIONS = 2_000_000


def vertex_record_bytes(feature_length: int, average_degree: float) -> int:
    """Bytes of one vertex's record in the input buffer.

    A resident vertex carries its weighted feature vector ηw (``feature_length``
    values), its neighbor list in CSR form (``average_degree`` indices on
    average), and the α counter plus the CSR offset (two words).
    """
    if feature_length <= 0:
        raise ValueError("feature_length must be positive")
    index_bytes = GNNIE_TABLE.index_bytes
    return int(
        feature_length * GNNIE_TABLE.bytes_per_value
        + round(average_degree) * index_bytes
        + 2 * index_bytes
    )


def stream_order(adjacency: CSRGraph) -> np.ndarray:
    """DRAM layout of the vertex records: descending degree, ties by id."""
    vertex_ids = np.arange(adjacency.num_vertices)
    return np.lexsort((vertex_ids, -adjacency.degrees())).astype(np.int64)


def degree_aware_walk(
    adjacency: CSRGraph,
    capacity_vertices: int,
    bytes_per_vertex: int,
    gamma: int,
) -> CacheSimulationResult:
    """Run Aggregation caching until every edge has been processed.

    ``r = max(1, capacity_vertices // 8)`` vertices are replaced per
    iteration.

    Each Round lays out its remaining undirected edges once.  Every
    resident was fetched from behind the stream cursor, and an edge still
    unprocessed when the Round starts has α > 0 at both ends, so both ends
    are in the Round's queue.  The edge cannot be ready before its *later*
    endpoint (by queue position) is fetched; in that iteration it is ready
    exactly when its *earlier* endpoint is still resident, and otherwise it
    waits for a later Round.  So the Round groups its edges by the queue
    position of their later endpoint, and the iteration that fetches
    ``queue[lo:cursor]`` decides one contiguous slice of them: every edge
    is examined once per Round and none needs a "processed" check.

    Every fetch is sequential, so the walk never misses and has no trace for
    the miss-path hierarchy to filter.

    Raises :class:`RuntimeError` rather than return a truncated result when
    the walk reaches :data:`MAX_ITERATIONS` with edges left.
    """
    bytes_per_vertex = int(bytes_per_vertex)
    num_vertices = adjacency.num_vertices
    order = stream_order(adjacency)
    later, earlier = _undirected_edges(adjacency)
    num_edges = int(later.size)
    capacity = min(capacity_vertices, num_vertices)
    replacement = min(max(1, capacity_vertices // 8), capacity)

    alpha = np.bincount(np.concatenate([later, earlier]), minlength=num_vertices)
    resident = np.zeros(num_vertices, dtype=bool)
    position = np.zeros(num_vertices, dtype=np.int64)
    result = CacheSimulationResult()
    # The initial α distribution is the (power-law) degree distribution;
    # recording it first lets the Fig. 10 analysis show the flattening
    # relative to the starting point.
    result.alpha_round_snapshots.append(alpha[alpha > 0])
    total_processed = 0
    #: (round, edges processed, max edges per vertex, residents) per
    #: iteration; the result's columns are built from it once, at the end.
    log: list[tuple[int, int, int, int]] = []

    while total_processed < num_edges:
        result.num_rounds += 1
        round_index = result.num_rounds
        # A vertex ahead of the cursor keeps its α for the whole Round, so
        # the Round's fetches are successive slices of its unfinished
        # vertices in stream order, and its remaining edges are laid out
        # once, grouped by the queue position of their later endpoint.
        queue = order[alpha[order] > 0]
        position[queue] = np.arange(queue.size)
        first_pos, second_pos = position[later], position[earlier]
        swap = first_pos < second_pos
        later, earlier = np.where(swap, earlier, later), np.where(swap, later, earlier)
        later_pos = np.maximum(first_pos, second_pos)
        by_later = np.argsort(later_pos, kind="stable")
        later, earlier = later[by_later], earlier[by_later]
        edge_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(later_pos, minlength=queue.size))]
        )
        done = np.zeros(later.size, dtype=bool)
        #: Resident vertex ids in ascending (dictionary) order.
        residents = np.sort(queue[:capacity])
        resident[residents] = True
        lo, cursor = 0, residents.size
        round_progress = False

        while True:
            if len(log) >= MAX_ITERATIONS:
                raise RuntimeError(
                    f"degree-aware walk reached MAX_ITERATIONS ({MAX_ITERATIONS}) "
                    f"with {num_edges - total_processed} of {num_edges} edges unprocessed"
                )
            start, stop = edge_ptr[lo], edge_ptr[cursor]
            ready = resident[earlier[start:stop]]
            done[start:stop] = ready
            edges_done = int(np.count_nonzero(ready))
            max_per_vertex = 0
            if edges_done:
                max_per_vertex = _consume(
                    np.concatenate([later[start:stop][ready], earlier[start:stop][ready]]),
                    alpha,
                )
            total_processed += edges_done
            round_progress = round_progress or edges_done > 0

            if cursor == queue.size:
                log.append((round_index, edges_done, max_per_vertex, residents.size))
                break
            resident_alpha = alpha[residents]
            evict_at, deadlocked = _select_evictions(
                residents, resident_alpha, replacement, gamma, num_vertices
            )
            if deadlocked:
                result.deadlock_events += 1
            resident[residents[evict_at]] = False
            unfinished_evicted = int(np.count_nonzero(resident_alpha[evict_at]))
            result.alpha_writeback_bytes += unfinished_evicted * GNNIE_TABLE.index_bytes
            # Each eviction frees a slot and the queue ahead is unfinished, so
            # the cursor advances every iteration and the Round ends.
            lo, cursor = cursor, min(cursor + evict_at.size, queue.size)
            newly = queue[lo:cursor]
            resident[newly] = True
            residents = np.sort(np.concatenate([np.delete(residents, evict_at), newly]))
            log.append((round_index, edges_done, max_per_vertex, residents.size))

        # End of round: write back α for unfinished residents and snapshot
        # the α distribution (Fig. 10).
        result.vertex_fetches += cursor
        unfinished_resident = int(np.count_nonzero(alpha[residents] > 0))
        result.alpha_writeback_bytes += unfinished_resident * GNNIE_TABLE.index_bytes
        resident[residents] = False
        result.alpha_round_snapshots.append(alpha[alpha > 0])
        later, earlier = later[~done], earlier[~done]
        if not round_progress:
            # No edge was processed in an entire round: the buffer is so
            # small that the streaming order never co-locates the endpoints
            # of the remaining edges.  Fall back to fetching the endpoints of
            # each remaining edge pairwise (still sequential DRAM reads of two
            # vertex records per edge) so Aggregation always completes.
            most = _consume(np.concatenate([later, earlier]), alpha)
            result.vertex_fetches += 2 * int(later.size)
            log.append((round_index, int(later.size), most, 2))
            total_processed += int(later.size)
            break

    result.sequential_fetch_bytes = result.vertex_fetches * bytes_per_vertex
    result.total_edges_processed = total_processed
    result.log_iterations(log)
    return result


def _undirected_edges(adjacency: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as two endpoint arrays: the CSR's strict
    upper triangle (self-loops carry no α)."""
    rows = np.repeat(np.arange(adjacency.num_vertices, dtype=np.int64), adjacency.degrees())
    upper = rows < adjacency.indices
    return rows[upper], adjacency.indices[upper]


def _consume(endpoints: np.ndarray, alpha: np.ndarray) -> int:
    """Drop each vertex's α by its count in ``endpoints`` (both ends of every
    edge processed together); returns the most edges any one vertex took."""
    vertices, counts = np.unique(endpoints, return_counts=True)
    alpha[vertices] -= counts
    return int(counts.max())


def _select_evictions(
    residents: np.ndarray,
    resident_alpha: np.ndarray,
    count: int,
    gamma: int,
    num_vertices: int,
) -> tuple[np.ndarray, bool]:
    """Positions, among the id-ordered ``residents``, of the vertices to
    evict, in eviction order, and whether the pick broke a deadlock.

    Fully processed vertices (α = 0) occupy buffer space uselessly and
    are always evicted first.  Among the remaining candidates (0 < α < γ)
    the paper replaces up to ``r`` per iteration "using dictionary
    order" — not by smallest α — which is why the choice of γ matters: a
    large γ evicts vertices that still have several unprocessed edges
    and must be refetched in a later Round (the Fig. 11 ablation).
    Residents are kept in ascending id order, so ascending positions are
    dictionary order.

    When no resident is a candidate the walk is deadlocked.  The paper
    raises γ dynamically; equivalently the ``count`` residents with the
    fewest unprocessed edges are force-evicted, in (α, id) order.
    """
    finished = np.flatnonzero(resident_alpha == 0)
    if finished.size >= count:
        return finished[:count], False
    candidates = np.flatnonzero((resident_alpha > 0) & (resident_alpha < gamma))
    evict_at = np.concatenate([finished, candidates[: count - finished.size]])
    if evict_at.size:
        return evict_at, False
    keys = resident_alpha * np.int64(num_vertices) + residents
    evict_at = np.argpartition(keys, count - 1)[:count]
    return evict_at[np.argsort(keys[evict_at])], True
