"""GNNIE's degree-aware cache controller for Aggregation (paper, Section VI).

:class:`DegreeAwareCacheController` simulates GNNIE's policy.  Vertices are
laid out in DRAM in descending degree order and streamed sequentially into
the input buffer; each iteration processes the unprocessed edges of the
resident subgraph, decrements the per-vertex unprocessed-edge counter α,
evicts up to ``r`` vertices whose α dropped below γ, and fetches the next
vertices of the stream.  When the stream is exhausted a *Round* ends; a new
Round re-streams the still-unfinished vertices.  Every DRAM access is
sequential.

The id-order baselines it is compared against live in
:mod:`repro.cache.policies`, whose :func:`~repro.cache.policies.simulate_policy`
runs any policy by name.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policy import CachePolicyConfig, CacheSimulationResult
from repro.cache.trace import TraceRecorder
from repro.graph.csr import CSRGraph

__all__ = [
    "MAX_ITERATIONS",
    "DegreeAwareCacheController",
    "UndirectedEdgeIndex",
    "vertex_record_bytes",
]

#: Safety bound on the cached-subgraph iterations one run simulates.
MAX_ITERATIONS = 2_000_000


def vertex_record_bytes(
    feature_length: int,
    average_degree: float,
    *,
    bytes_per_value: int = 1,
    index_bytes: int = 4,
) -> int:
    """Bytes of one vertex's record in the input buffer.

    A resident vertex carries its weighted feature vector ηw (``feature_length``
    values), its neighbor list in CSR form (``average_degree`` indices on
    average), and the α counter plus the CSR offset (two words).
    """
    if feature_length <= 0:
        raise ValueError("feature_length must be positive")
    return int(
        feature_length * bytes_per_value + round(average_degree) * index_bytes + 2 * index_bytes
    )


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
        others = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        edge_ids = np.concatenate([np.arange(self.num_edges)] * 2)
        order = np.argsort(endpoints, kind="stable")
        self._sorted_edge_ids = edge_ids[order]
        #: Opposite endpoint of each incidence slot, aligned with
        #: ``_sorted_edge_ids`` — lets :meth:`incident_edges_once` decide
        #: which endpoint "owns" an edge without a sort-based dedup.
        self._sorted_other = others[order]
        counts = np.bincount(endpoints, minlength=num_vertices)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.degrees = counts.astype(np.int64)
        self.num_vertices = int(num_vertices)

    def incident_edges_once(
        self, vertices: np.ndarray, member_mask: np.ndarray
    ) -> np.ndarray:
        """Edge ids incident to ``vertices``, each listed exactly once.

        ``vertices`` must be duplicate-free and ``member_mask`` a boolean
        vertex array that is True exactly on ``vertices``.  An edge joining
        two member vertices appears in both incidence slices; it is kept only
        from its lower-numbered endpoint, which removes duplicates with O(n)
        masking instead of the O(n log n) sort inside ``np.unique`` — the
        dominant cost of large cache simulations.  The result is
        *unordered*; callers must be order-independent.

        The incidence slices form a ragged gather; instead of materializing
        one array per vertex and concatenating, the slice offsets are
        expanded into a single flat index vector (the classic
        ``repeat``-of-starts plus intra-slice ramp) and applied in one go.
        """
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        ends = counts.cumsum()
        flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        others = self._sorted_other[flat]
        owners = np.repeat(vertices, counts)
        keep = ~member_mask[others] | (owners < others)
        return self._sorted_edge_ids[flat[keep]]


class DegreeAwareCacheController:
    """Simulates GNNIE's degree-aware caching policy on one graph."""

    def __init__(
        self,
        adjacency: CSRGraph,
        policy: CachePolicyConfig,
        *,
        bytes_per_vertex: int = 256,
        index_bytes: int = 4,
        edge_index: UndirectedEdgeIndex | None = None,
    ) -> None:
        self.adjacency = adjacency
        self.policy = policy
        self.bytes_per_vertex = int(bytes_per_vertex)
        self.index_bytes = int(index_bytes)
        # An edge index is a pure function of the adjacency; callers running
        # many simulations of one graph (buffer/γ sweeps) pass a shared one.
        self._edge_index = edge_index if edge_index is not None else UndirectedEdgeIndex(adjacency)
        vertex_ids = np.arange(adjacency.num_vertices)
        self.stream_order = np.lexsort((vertex_ids, -adjacency.degrees())).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self, *, collect_trace: bool = False) -> CacheSimulationResult:
        """Run Aggregation caching until every edge has been processed.

        With ``collect_trace`` the eviction sequence is recorded so the
        miss-path hierarchy can evaluate victim-cache occupancy; the policy
        itself produces no input-buffer misses (every fetch is sequential),
        so the trace contains no MISS events and the hierarchy recovers
        nothing — which is exactly the invariant the miss-path ablation
        asserts.
        """
        recorder = (
            TraceRecorder(
                num_vertices=self.adjacency.num_vertices,
                bytes_per_vertex=self.bytes_per_vertex,
                policy="degree_aware",
                stream_order=self.stream_order,
            )
            if collect_trace
            else None
        )
        edge_index = self._edge_index
        num_vertices = self.adjacency.num_vertices
        num_edges = edge_index.num_edges
        policy = self.policy
        capacity = min(policy.capacity_vertices, num_vertices)
        replacement = min(policy.effective_replacement_count, capacity)

        alpha = edge_index.degrees.copy()
        processed = np.zeros(num_edges, dtype=bool)
        resident = np.zeros(num_vertices, dtype=bool)
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
            resident[:] = False
            stream_position = 0
            fetched, stream_position = self._fetch(
                self.stream_order, stream_position, capacity, alpha, resident
            )
            result.vertex_fetches += fetched.size
            result.sequential_fetch_bytes += fetched.size * self.bytes_per_vertex
            resident[fetched] = True
            resident_count = fetched.size
            newly = fetched
            round_progress = False

            while len(log) < MAX_ITERATIONS:
                edges_done, max_per_vertex = self._process_new(
                    newly, resident, processed, alpha, edge_index
                )
                total_processed += edges_done
                if edges_done:
                    round_progress = True

                stream_exhausted = not self._stream_has_more(
                    self.stream_order, stream_position, alpha
                )
                if not stream_exhausted:
                    evict_ids = self._select_evictions(resident, alpha, replacement)
                    if evict_ids.size == 0:
                        # Deadlock: no vertex satisfies α < γ.  The paper
                        # raises γ dynamically; equivalently we force-evict
                        # the residents with the fewest unprocessed edges.
                        result.deadlock_events += 1
                        evict_ids = self._force_evictions(resident, alpha, replacement)
                    resident[evict_ids] = False
                    if recorder is not None:
                        recorder.evict_many(evict_ids)
                    unfinished_evicted = evict_ids[alpha[evict_ids] > 0]
                    result.alpha_writeback_bytes += unfinished_evicted.size * self.index_bytes
                    fetched, stream_position = self._fetch(
                        self.stream_order, stream_position, evict_ids.size, alpha, resident
                    )
                    result.vertex_fetches += fetched.size
                    result.sequential_fetch_bytes += fetched.size * self.bytes_per_vertex
                    resident[fetched] = True
                    # Evictions are distinct residents and fetches distinct
                    # non-residents, so the count stays exact without a scan.
                    resident_count += fetched.size - evict_ids.size
                    newly = fetched
                else:
                    newly = np.empty(0, dtype=np.int64)

                log.append((round_index, edges_done, max_per_vertex, resident_count))
                if stream_exhausted:
                    break
                if newly.size == 0 and edges_done == 0:
                    break

            # End of round: write back α for unfinished residents, snapshot
            # the α distribution (Fig. 10), and check overall progress.
            unfinished_resident = np.flatnonzero(resident & (alpha > 0))
            result.alpha_writeback_bytes += unfinished_resident.size * self.index_bytes
            result.alpha_round_snapshots.append(alpha[alpha > 0].copy())
            if len(log) >= MAX_ITERATIONS:
                break
            if not round_progress and total_processed < num_edges:
                # No edge was processed in an entire round: the buffer is so
                # small that the streaming order never co-locates the
                # endpoints of the remaining edges.  Fall back to fetching
                # the endpoints of each remaining edge pairwise (still
                # sequential DRAM reads of two vertex records per edge) so
                # Aggregation always completes.
                total_processed += self._pairwise_fallback(
                    processed, alpha, edge_index, result, log, round_index
                )
                break

        result.total_edges_processed = total_processed
        result.log_iterations(log)
        if recorder is not None:
            result.trace = recorder.finish()
        return result

    def _pairwise_fallback(
        self,
        processed: np.ndarray,
        alpha: np.ndarray,
        edge_index: UndirectedEdgeIndex,
        result: CacheSimulationResult,
        log: list[tuple[int, int, int, int]],
        round_index: int,
    ) -> int:
        """Process every remaining edge by fetching its two endpoints."""
        remaining = np.flatnonzero(~processed)
        if remaining.size == 0:
            return 0
        endpoints = edge_index.edges[remaining]
        processed[remaining] = True
        flattened = np.concatenate([endpoints[:, 0], endpoints[:, 1]])
        np.subtract.at(alpha, flattened, 1)
        result.vertex_fetches += int(2 * remaining.size)
        result.sequential_fetch_bytes += int(2 * remaining.size * self.bytes_per_vertex)
        log.append((round_index, int(remaining.size), int(np.bincount(flattened).max()), 2))
        return int(remaining.size)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fetch(
        order: np.ndarray,
        position: int,
        count: int,
        alpha: np.ndarray,
        resident: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Fetch up to ``count`` unfinished, non-resident vertices from the stream."""
        if count <= 0 or position >= order.size:
            return np.empty(0, dtype=np.int64), position
        remaining = order[position:]
        eligible = np.flatnonzero((alpha[remaining] > 0) & ~resident[remaining])
        taken = eligible[:count]
        fetched = remaining[taken].astype(np.int64, copy=False)
        if taken.size < count:
            # The stream ran out before filling the request: every position
            # was consumed, exactly like the scalar scan.
            return fetched, int(order.size)
        return fetched, position + int(taken[-1]) + 1

    @staticmethod
    def _stream_has_more(order: np.ndarray, position: int, alpha: np.ndarray) -> bool:
        remaining = order[position:]
        if remaining.size == 0:
            return False
        return bool(np.any(alpha[remaining] > 0))

    def _process_new(
        self,
        new_vertices: np.ndarray,
        resident: np.ndarray,
        processed: np.ndarray,
        alpha: np.ndarray,
        edge_index: UndirectedEdgeIndex,
    ) -> tuple[int, int]:
        """Process all previously unprocessed edges made resident by ``new_vertices``."""
        if new_vertices.size == 0:
            return 0, 0
        # new_vertices come from _fetch over a stream-order permutation, so
        # they are duplicate-free as incident_edges_once requires.  Every
        # consumer below (boolean masks, subtract.at, bincount) is
        # order-independent, so the unordered candidate list is equivalent
        # to the sorted one.
        member_mask = np.zeros(edge_index.num_vertices, dtype=bool)
        member_mask[new_vertices] = True
        candidates = edge_index.incident_edges_once(new_vertices, member_mask)
        if candidates.size == 0:
            return 0, 0
        candidates = candidates[~processed[candidates]]
        if candidates.size == 0:
            return 0, 0
        endpoints = edge_index.edges[candidates]
        both_resident = resident[endpoints[:, 0]] & resident[endpoints[:, 1]]
        ready = candidates[both_resident]
        if ready.size == 0:
            return 0, 0
        processed[ready] = True
        ready_endpoints = edge_index.edges[ready]
        flattened = np.concatenate([ready_endpoints[:, 0], ready_endpoints[:, 1]])
        np.subtract.at(alpha, flattened, 1)
        per_vertex = np.bincount(flattened)
        return int(ready.size), int(per_vertex.max())

    def _select_evictions(
        self, resident: np.ndarray, alpha: np.ndarray, count: int
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
        candidates = resident_ids[
            (resident_alpha > 0) & (resident_alpha < self.policy.gamma)
        ]
        return np.concatenate([finished, candidates[: count - finished.size]])

    @staticmethod
    def _force_evictions(resident: np.ndarray, alpha: np.ndarray, count: int) -> np.ndarray:
        resident_ids = np.flatnonzero(resident)
        order = np.argsort(alpha[resident_ids], kind="stable")
        return resident_ids[order][:count]
