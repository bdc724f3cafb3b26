"""Edge-based Aggregation mapping (paper, Section V-C).

Aggregation sums the weighted feature vectors ηw_j over each vertex's
neighborhood.  The graph is processed one cached subgraph at a time (the
cache controller of :mod:`repro.cache` decides which vertices are resident);
within a subgraph iteration the edges are processed in parallel in the CPE
array:

* with **load balancing (LB)** enabled, the per-edge elementwise additions
  are decomposed into unit pairwise summations and spread over all CPEs (an
  adder tree whose width per vertex follows its subgraph degree), so the
  whole array's MAC bandwidth is the only limit;
* without LB (the ablation baseline), each vertex's accumulation is handled
  by whichever CPE it was assigned to in vertex order, so a high-degree
  vertex serializes on a single CPE and the power-law degree distribution
  directly becomes idle time.

For GATs the same edge walk also evaluates the softmax numerator/denominator
(Fig. 7): an add, a LeakyReLU and an exponential per edge in the SFU, a
multiply of exp(e_ij) with ηw_j per feature element, and a division per
output element at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import AggregationKnobs

__all__ = ["IterationCost", "AggregationCycleModel"]


@dataclass(frozen=True)
class IterationCost:
    """Cycle cost of aggregating one or more cached-subgraph iterations."""

    edges_processed: int
    compute_cycles: int
    sfu_cycles: int
    addition_ops: int
    multiply_ops: int
    sfu_ops: int


class AggregationCycleModel:
    """Converts per-iteration edge counts into CPE-array cycles."""

    def __init__(
        self,
        knobs: AggregationKnobs,
        feature_length: int,
        *,
        is_gat: bool = False,
    ) -> None:
        if feature_length <= 0:
            raise ValueError("feature_length must be positive")
        self.knobs = knobs
        self.feature_length = int(feature_length)
        self.is_gat = is_gat
        self._total_macs = float(knobs.total_macs)
        self._num_cpes = float(knobs.num_rows * knobs.table.num_cols)
        self._average_macs_per_cpe = self._total_macs / self._num_cpes
        #: SFU scalar throughput per cycle: one op per SFU lane, with one
        #: lane per CPE row in each interleaved SFU column.
        self._sfu_lanes = float(knobs.table.sfu_columns * knobs.num_rows)

    def iteration_totals(
        self,
        edges: np.ndarray,
        max_edges_per_vertex: np.ndarray,
        resident_vertices: np.ndarray,
    ) -> IterationCost:
        """Summed cost of a whole iteration sequence in one NumPy pass.

        Takes the per-iteration columns of a cache simulation and prices
        every iteration elementwise, returning the totals as one
        :class:`IterationCost`.  Every intermediate stays far below 2**53,
        so the float64 divisions and ceilings are exact per iteration.

        Args:
            edges: Undirected subgraph edges processed in each iteration;
                each contributes an accumulation into both endpoints.
            max_edges_per_vertex: Largest number of edges any single
                resident vertex accumulates in each iteration (drives the
                no-LB penalty).
            resident_vertices: Vertices resident in the buffer in each
                iteration (the GAT softmax-denominator adds).
        """
        edges = np.asarray(edges, dtype=np.int64)
        max_edges_per_vertex = np.asarray(max_edges_per_vertex, dtype=np.int64)
        resident_vertices = np.asarray(resident_vertices, dtype=np.int64)
        if edges.size == 0:
            return IterationCost(0, 0, 0, 0, 0, 0)
        if int(edges.min()) < 0:
            raise ValueError("edges must be non-negative")
        feature = self.feature_length
        # Each undirected edge feeds both endpoints: 2 directed contributions,
        # each an elementwise add of an F-long vector.
        addition_ops = 2 * edges * feature
        if self.is_gat:
            # exp(e_ij) · ηw_j per directed edge (F multiplies); LeakyReLU and
            # exp per directed edge plus one denominator add per resident
            # vertex in the SFU.  The final division is finalization_cost.
            multiply_ops = 2 * edges * feature
            sfu_ops = 2 * edges * 2 + resident_vertices
        else:
            multiply_ops = np.zeros_like(edges)
            sfu_ops = np.zeros_like(edges)
        mac_ops = addition_ops + multiply_ops

        if self.knobs.enable_aggregation_load_balancing:
            compute_cycles = np.where(
                mac_ops > 0, np.ceil(mac_ops / self._total_macs), 0.0
            ).astype(np.int64)
        else:
            # Without degree-aware distribution, vertices are assigned to
            # CPEs in id order; the expected bottleneck is the average
            # per-CPE share plus the largest single-vertex accumulation
            # serialized on one CPE.
            per_vertex_factor = 2 if self.is_gat else 1
            average_share = mac_ops / self._num_cpes
            worst_vertex = max_edges_per_vertex * feature * per_vertex_factor
            bottleneck = average_share + worst_vertex
            compute_cycles = np.where(
                mac_ops > 0, np.ceil(bottleneck / self._average_macs_per_cpe), 0.0
            ).astype(np.int64)

        table = self.knobs.table
        per_op_latency = max(table.exp_latency_cycles, table.leaky_relu_latency_cycles)
        sfu_cycles = np.where(
            sfu_ops > 0, np.ceil(sfu_ops * per_op_latency / self._sfu_lanes), 0.0
        ).astype(np.int64)
        return IterationCost(
            edges_processed=int(edges.sum()),
            compute_cycles=int(compute_cycles.sum()),
            sfu_cycles=int(sfu_cycles.sum()),
            addition_ops=int(addition_ops.sum()),
            multiply_ops=int(multiply_ops.sum()),
            sfu_ops=int(sfu_ops.sum()),
        )

    def finalization_cost(self, num_vertices: int) -> IterationCost:
        """Cost of the per-vertex wrap-up after all edges are aggregated.

        For GATs this is the division of the accumulated numerator by the
        softmax denominator (F divisions per vertex in the SFU); for the
        other GNNs only the activation remains, which the activation unit
        performs as results stream out (modeled as a single cycle per vertex
        element overlapped with the write-back, hence zero extra CPE cycles).
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if not self.is_gat:
            return IterationCost(0, 0, 0, 0, 0, 0)
        divide_ops = num_vertices * self.feature_length
        sfu_cycles = int(
            np.ceil(divide_ops * self.knobs.table.divide_latency_cycles / self._sfu_lanes)
        )
        return IterationCost(
            edges_processed=0,
            compute_cycles=0,
            sfu_cycles=sfu_cycles,
            addition_ops=0,
            multiply_ops=0,
            sfu_ops=int(divide_ops),
        )

    # ------------------------------------------------------------------ #
    # Functional mirror
    # ------------------------------------------------------------------ #
    @staticmethod
    def aggregate_subgraph(
        weighted: np.ndarray,
        edges: np.ndarray,
        accumulator: np.ndarray,
        *,
        edge_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Accumulate edge contributions into ``accumulator`` (both directions).

        This is the functional counterpart of one cached-subgraph iteration:
        every undirected edge (u, v) adds ηw_u into v's partial sum and ηw_v
        into u's.  Tests use it to confirm that processing the graph in
        cache-controller order reproduces the reference aggregation.
        """
        weighted = np.asarray(weighted, dtype=np.float64)
        accumulator = np.asarray(accumulator, dtype=np.float64)
        if edges.size == 0:
            return accumulator
        sources = edges[:, 0]
        destinations = edges[:, 1]
        if edge_weights is None:
            forward = weighted[sources]
            backward = weighted[destinations]
        else:
            forward = weighted[sources] * edge_weights[:, None]
            backward = weighted[destinations] * edge_weights[:, None]
        np.add.at(accumulator, destinations, forward)
        np.add.at(accumulator, sources, backward)
        return accumulator
