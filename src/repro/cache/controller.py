"""GNNIE's degree-aware cache walk for Aggregation (paper, Section VI).

:func:`degree_aware_walk` simulates GNNIE's policy.  Vertices are laid out
in DRAM in descending degree order (:func:`stream_order`) and streamed
sequentially into the input buffer; each iteration processes the
unprocessed edges of the resident subgraph, decrements the per-vertex
unprocessed-edge counter α, evicts up to ``r`` vertices whose α dropped
below γ, and fetches the next vertices of the stream.  When the stream is
exhausted a *Round* ends; a new Round re-streams the still-unfinished
vertices.  Every DRAM access is sequential.

:func:`~repro.cache.policies.simulate_policy` runs it, and the id-order
baselines it is compared against, by name.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policy import CacheSimulationResult
from repro.cache.trace import TraceRecorder
from repro.graph.csr import CSRGraph

__all__ = [
    "INDEX_BYTES",
    "MAX_ITERATIONS",
    "UndirectedEdgeIndex",
    "degree_aware_walk",
    "stream_order",
    "vertex_record_bytes",
]

#: Safety bound on the cached-subgraph iterations one run simulates.
MAX_ITERATIONS = 2_000_000

#: Bytes of one index word: a CSR neighbor index, an α counter or a CSR offset.
INDEX_BYTES = 4


def vertex_record_bytes(
    feature_length: int, average_degree: float, *, bytes_per_value: int = 1
) -> int:
    """Bytes of one vertex's record in the input buffer.

    A resident vertex carries its weighted feature vector ηw (``feature_length``
    values), its neighbor list in CSR form (``average_degree`` indices on
    average), and the α counter plus the CSR offset (two words).
    """
    if feature_length <= 0:
        raise ValueError("feature_length must be positive")
    return int(
        feature_length * bytes_per_value + round(average_degree) * INDEX_BYTES + 2 * INDEX_BYTES
    )


def stream_order(adjacency: CSRGraph) -> np.ndarray:
    """DRAM layout of the vertex records: descending degree, ties by id."""
    vertex_ids = np.arange(adjacency.num_vertices)
    return np.lexsort((vertex_ids, -adjacency.degrees())).astype(np.int64)


class UndirectedEdgeIndex:
    """Undirected edge list plus per-vertex incidence lists (CSR layout).

    A pure function of the adjacency, so one index can be shared across
    every cache simulation of a graph (the batch execution path builds it
    once per graph via :mod:`repro.sim.batch` and passes it in).
    """

    def __init__(self, adjacency: CSRGraph) -> None:
        directed = adjacency.edge_array()
        mask = directed[:, 0] < directed[:, 1]
        self.edges = directed[mask]
        self.num_edges = int(self.edges.shape[0])
        num_vertices = adjacency.num_vertices
        endpoints = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        edge_ids = np.concatenate([np.arange(self.num_edges)] * 2)
        order = np.argsort(endpoints, kind="stable")
        self._sorted_edge_ids = edge_ids[order]
        counts = np.bincount(endpoints, minlength=num_vertices)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.degrees = counts.astype(np.int64)
        self.num_vertices = int(num_vertices)

    def incident_edges(self, vertices: np.ndarray) -> np.ndarray:
        """Edge ids of every incidence slot of ``vertices``, slice by slice.

        An edge joining two of ``vertices`` appears twice.  The ragged
        gather is one flat index vector (the ``repeat``-of-starts plus
        intra-slice ramp) instead of one array per vertex.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        ends = counts.cumsum()
        flat = np.arange(int(counts.sum()), dtype=np.int64)
        flat += np.repeat(starts - (ends - counts), counts)
        return self._sorted_edge_ids[flat]


def degree_aware_walk(
    adjacency: CSRGraph,
    capacity_vertices: int,
    bytes_per_vertex: int,
    gamma: int,
    collect_trace: bool,
    edge_index: UndirectedEdgeIndex | None,
) -> CacheSimulationResult:
    """Run Aggregation caching until every edge has been processed.

    ``r = max(1, capacity_vertices // 8)`` vertices are replaced per
    iteration.  ``edge_index`` is an optional shared index of
    ``adjacency``; buffer/γ sweeps of one graph build it once.

    With ``collect_trace`` the eviction sequence is recorded so the
    miss-path hierarchy can evaluate victim-cache occupancy; the policy
    itself produces no input-buffer misses (every fetch is sequential), so
    the trace contains no MISS events and the hierarchy recovers nothing —
    which is exactly the invariant the miss-path ablation asserts.

    Raises :class:`RuntimeError` rather than return a truncated result when
    the walk reaches :data:`MAX_ITERATIONS` with edges left.
    """
    if edge_index is None:
        edge_index = UndirectedEdgeIndex(adjacency)
    bytes_per_vertex = int(bytes_per_vertex)
    order = stream_order(adjacency)
    recorder = (
        TraceRecorder(
            num_vertices=adjacency.num_vertices,
            bytes_per_vertex=bytes_per_vertex,
            policy="degree_aware",
            stream_order=order,
        )
        if collect_trace
        else None
    )
    edges = edge_index.edges
    num_edges = edge_index.num_edges
    capacity = min(capacity_vertices, adjacency.num_vertices)
    replacement = min(max(1, capacity_vertices // 8), capacity)

    alpha = edge_index.degrees.copy()
    processed = np.zeros(num_edges, dtype=bool)
    resident = np.zeros(adjacency.num_vertices, dtype=bool)
    result = CacheSimulationResult()
    # The initial α distribution is the (power-law) degree distribution;
    # recording it first lets the Fig. 10 analysis show the flattening
    # relative to the starting point.
    result.alpha_round_snapshots.append(alpha[alpha > 0].copy())
    total_processed = 0
    #: (round, edges processed, max edges per vertex, residents) per
    #: iteration; the result's columns are built from it once, at the end.
    log: list[tuple[int, int, int, int]] = []

    while total_processed < num_edges:
        result.num_rounds += 1
        round_index = result.num_rounds
        # Every resident was fetched from behind the cursor and an edge is
        # processed only when both endpoints are resident, so a vertex ahead
        # of the cursor keeps its α for the whole Round: the Round's fetches
        # are successive slices of its unfinished vertices in stream order.
        queue = order[alpha[order] > 0]
        resident[:] = False
        newly = queue[:capacity]
        cursor = resident_count = newly.size
        resident[newly] = True
        round_progress = False

        while True:
            if len(log) >= MAX_ITERATIONS:
                raise RuntimeError(
                    f"degree-aware walk reached MAX_ITERATIONS ({MAX_ITERATIONS}) "
                    f"with {num_edges - total_processed} of {num_edges} edges unprocessed"
                )
            candidates = edge_index.incident_edges(newly)
            candidates = candidates[~processed[candidates]]
            ends = edges[candidates]
            # An edge joining two new vertices was gathered from both ends.
            ready = np.unique(candidates[resident[ends[:, 0]] & resident[ends[:, 1]]])
            edges_done = int(ready.size)
            max_per_vertex = _consume(ready, edges, alpha, processed) if edges_done else 0
            total_processed += edges_done
            round_progress = round_progress or edges_done > 0

            if cursor == queue.size:
                log.append((round_index, edges_done, max_per_vertex, resident_count))
                break
            evict_ids = _select_evictions(resident, alpha, replacement, gamma)
            if evict_ids.size == 0:
                # Deadlock: no vertex satisfies α < γ.  The paper raises γ
                # dynamically; equivalently we force-evict the residents with
                # the fewest unprocessed edges.
                result.deadlock_events += 1
                resident_ids = np.flatnonzero(resident)
                fewest_first = np.argsort(alpha[resident_ids], kind="stable")
                evict_ids = resident_ids[fewest_first[:replacement]]
            resident[evict_ids] = False
            if recorder is not None:
                recorder.evict_many(evict_ids)
            unfinished_evicted = int(np.count_nonzero(alpha[evict_ids] > 0))
            result.alpha_writeback_bytes += unfinished_evicted * INDEX_BYTES
            # Each eviction frees a slot and the queue ahead is unfinished, so
            # the cursor advances every iteration and the Round ends.
            newly = queue[cursor : cursor + evict_ids.size]
            cursor += newly.size
            resident[newly] = True
            resident_count += newly.size - evict_ids.size
            log.append((round_index, edges_done, max_per_vertex, resident_count))

        # End of round: write back α for unfinished residents and snapshot
        # the α distribution (Fig. 10).
        result.vertex_fetches += cursor
        unfinished_resident = int(np.count_nonzero(resident & (alpha > 0)))
        result.alpha_writeback_bytes += unfinished_resident * INDEX_BYTES
        result.alpha_round_snapshots.append(alpha[alpha > 0].copy())
        if not round_progress:
            # No edge was processed in an entire round: the buffer is so
            # small that the streaming order never co-locates the endpoints
            # of the remaining edges.  Fall back to fetching the endpoints of
            # each remaining edge pairwise (still sequential DRAM reads of two
            # vertex records per edge) so Aggregation always completes.
            remaining = np.flatnonzero(~processed)
            most = _consume(remaining, edges, alpha, processed)
            result.vertex_fetches += 2 * int(remaining.size)
            log.append((round_index, int(remaining.size), most, 2))
            total_processed += int(remaining.size)
            break

    result.sequential_fetch_bytes = result.vertex_fetches * bytes_per_vertex
    result.total_edges_processed = total_processed
    result.log_iterations(log)
    if recorder is not None:
        result.trace = recorder.finish()
    return result


def _consume(
    edge_ids: np.ndarray, edges: np.ndarray, alpha: np.ndarray, processed: np.ndarray
) -> int:
    """Mark the distinct ``edge_ids`` processed and drop each endpoint's α by
    its count of them; returns the most edges any one vertex took."""
    processed[edge_ids] = True
    vertices, counts = np.unique(edges[edge_ids], return_counts=True)
    alpha[vertices] -= counts
    return int(counts.max())


def _select_evictions(
    resident: np.ndarray, alpha: np.ndarray, count: int, gamma: int
) -> np.ndarray:
    """Residents with α < γ: finished vertices first, then dictionary order.

    Fully processed vertices (α = 0) occupy buffer space uselessly and
    are always evicted first.  Among the remaining candidates (0 < α < γ)
    the paper replaces up to ``r`` per iteration "using dictionary
    order" — not by smallest α — which is why the choice of γ matters: a
    large γ evicts vertices that still have several unprocessed edges
    and must be refetched in a later Round (the Fig. 11 ablation).
    """
    # flatnonzero yields ascending vertex ids and boolean selection
    # preserves that order, so both slices are already in dictionary
    # order — no sort needed.
    resident_ids = np.flatnonzero(resident)
    resident_alpha = alpha[resident_ids]
    finished = resident_ids[resident_alpha == 0]
    if finished.size >= count:
        return finished[:count]
    candidates = resident_ids[(resident_alpha > 0) & (resident_alpha < gamma)]
    return np.concatenate([finished, candidates[: count - finished.size]])
