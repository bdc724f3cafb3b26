"""GNNIE's degree-aware cache walk for Aggregation (paper, Section VI).

:func:`degree_aware_walk` simulates GNNIE's policy.  Vertices are laid out
in DRAM in descending degree order (:func:`stream_order`) and streamed
sequentially into the input buffer; each iteration processes the
unprocessed edges of the resident subgraph, decrements the per-vertex
unprocessed-edge counter α, evicts up to ``r`` vertices whose α dropped
below γ, and fetches the next vertices of the stream.  When the stream is
exhausted a *Round* ends; a new Round re-streams the still-unfinished
vertices.  Every DRAM access is sequential.

The walk reads each undirected edge once from the CSR's upper triangle and
lays the edges out once per simulation, grouped by the stream rank of each
edge's later endpoint.  A Round fixes its fetch queue when it starts and
maps those ranks to queue positions, so every iteration decides one
contiguous slice of edges and keeps at most ``capacity`` resident ids in
dictionary order (see :func:`degree_aware_walk` for why one layout serves
every Round and one slice per iteration is exact).

:func:`~repro.cache.policies.simulate_policy` runs it, and the id-order
baselines it is compared against, by name.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policy import CacheSimulationResult
from repro.graph.csr import CSRGraph
from repro.hw.config import CacheKnobs

__all__ = [
    "MAX_ITERATIONS",
    "degree_aware_walk",
    "stream_order",
    "vertex_record_bytes",
]

#: Safety bound on the cached-subgraph iterations one run simulates.
MAX_ITERATIONS = 2_000_000


def vertex_record_bytes(feature_length: int, average_degree: float, knobs: CacheKnobs) -> int:
    """Bytes of one vertex's record in the input buffer.

    A resident vertex carries its weighted feature vector ηw (``feature_length``
    values), its neighbor list in CSR form (``average_degree`` indices on
    average), and the α counter plus the CSR offset (two words), at the
    value and index widths of the cache view ``knobs``.
    """
    if feature_length <= 0:
        raise ValueError("feature_length must be positive")
    index_bytes = knobs.index_bytes
    return int(
        feature_length * knobs.bytes_per_value
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
    index_bytes: int,
) -> CacheSimulationResult:
    """Run Aggregation caching until every edge has been processed.

    ``r = max(1, capacity_vertices // 8)`` vertices are replaced per
    iteration.  An unfinished vertex leaving the buffer writes its α back
    in one ``index_bytes`` word.

    The undirected edges are laid out once, before the first Round,
    grouped by the stream rank of their *later* endpoint.  Every Round's
    queue, ``order[alpha[order] > 0]``, is a subsequence of the stream
    order, because α only falls.  An edge still unprocessed when a Round
    starts has α > 0 at both ends, so both ends are in the queue, and queue
    positions are monotone in stream rank: the edge's later endpoint by
    queue position is its later endpoint by rank, in every Round.  So the
    groups stay in ascending queue position after each Round drops its
    processed edges, and a Round only maps ranks to positions to find where
    each group starts.  Every resident was fetched from behind the stream
    cursor, so the edge cannot be ready before its later endpoint is
    fetched; in that iteration it is ready exactly when its *earlier*
    endpoint is still resident, and otherwise it waits for a later Round.
    So the iteration that fetches ``queue[lo:cursor]`` decides one
    contiguous slice of edges: every edge is examined once per Round and
    none needs a "processed" check.

    Nothing reads the order of the edges inside one group: an iteration
    takes its whole slice, counts the ready edges, and :func:`_consume`
    counts endpoints with ``np.unique``.  So the layout's sort need not be
    stable, and no result depends on how it orders the edges of one group.

    Every fetch is sequential, so the walk never misses and leaves the
    miss-path ablation (:mod:`repro.cache.miss_path`) nothing to filter.

    Raises :class:`RuntimeError` rather than return a truncated result when
    the walk reaches :data:`MAX_ITERATIONS` with edges left.
    """
    bytes_per_vertex = int(bytes_per_vertex)
    num_vertices = adjacency.num_vertices
    order = stream_order(adjacency)
    later, earlier = _edges_by_later_endpoint(adjacency, order)
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
        # vertices in stream order.  The remaining edges are still grouped
        # by their later endpoint, now in ascending queue position.
        queue = order[alpha[order] > 0]
        position[queue] = np.arange(queue.size)
        edge_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(position[later], minlength=queue.size))]
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
            result.alpha_writeback_bytes += unfinished_evicted * index_bytes
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
        result.alpha_writeback_bytes += unfinished_resident * index_bytes
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


def _edges_by_later_endpoint(
    adjacency: CSRGraph, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as its (later, earlier) endpoints in the
    stream ``order``, grouped by the later endpoint's stream rank.

    One sort of ``later rank × V + earlier rank`` keys groups the edges; it
    also orders each group by its earlier endpoint, but the walk never reads
    the order of the edges inside one group (see :func:`degree_aware_walk`),
    so no result depends on it, and the sort need not be stable.  Sorting
    the keys in place needs no argsort index or gather through it, which
    keeps the walk's peak memory down.
    """
    num_vertices = adjacency.num_vertices
    rank = np.empty(num_vertices, dtype=np.int64)
    rank[order] = np.arange(num_vertices)
    first, second = (rank[ends] for ends in _undirected_edges(adjacency))
    keys = np.maximum(first, second) * num_vertices + np.minimum(first, second)
    keys.sort()
    return order[keys // num_vertices], order[keys % num_vertices]


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
