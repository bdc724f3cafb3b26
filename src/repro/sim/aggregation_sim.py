"""Aggregation-phase performance simulation.

Combines the cache-controller simulation (which vertices are resident when,
how many DRAM fetches the policy needs) with the Aggregation cycle model
(how long the CPE array takes to process each cached-subgraph iteration) and
with the output-buffer partial-sum traffic model.

The phase reports its streaming traffic and leaves its overlap with compute
to ``GNNIEExecutor._overlap_layer_memory``; its stall is what no prefetch
hides, the random accesses of id-order caching.
"""

from __future__ import annotations

import numpy as np

from repro.cache.controller import vertex_record_bytes
from repro.cache.policies import simulate_policy
from repro.cache.policy import CacheSimulationResult
from repro.graph.csr import CSRGraph
from repro.hw import dram
from repro.hw.config import AggregationKnobs, CacheKnobs
from repro.mapping.aggregation import AggregationCycleModel
from repro.sim.results import PhaseResult

__all__ = [
    "input_buffer_capacity",
    "run_cache_simulation",
    "aggregation_phase_from_cache",
]


def input_buffer_capacity(
    adjacency: CSRGraph, knobs: CacheKnobs, feature_length: int
) -> tuple[int, int]:
    """``(capacity_vertices, record_bytes)`` of the configured input buffer.

    The single place where the buffer's vertex capacity is derived from the
    per-vertex record size; the CLI and the benchmarks reuse it so their
    tables are computed at exactly the capacity the simulator charges.
    """
    record_bytes = vertex_record_bytes(feature_length, adjacency.average_degree(), knobs)
    return max(1, knobs.input_buffer_bytes_or_default // record_bytes), record_bytes


def run_cache_simulation(
    adjacency: CSRGraph,
    knobs: CacheKnobs,
    feature_length: int,
) -> CacheSimulationResult:
    """Run the caching policy selected by the configuration.

    With ``enable_degree_aware_caching`` the degree-aware controller is used
    (sequential DRAM traffic only); otherwise the vertex-id-order baseline is
    simulated, which pays random DRAM accesses for non-resident neighbors.

    The simulation needs no graph index: the degree-aware walk reads its
    undirected edges from the CSR's upper triangle on each call.
    """
    capacity, record_bytes = input_buffer_capacity(adjacency, knobs, feature_length)
    return simulate_policy(
        "degree_aware" if knobs.enable_degree_aware_caching else "vertex_order",
        adjacency,
        capacity,
        bytes_per_vertex=record_bytes,
        gamma=knobs.gamma,
        index_bytes=knobs.index_bytes,
    )


def aggregation_phase_from_cache(
    cache_result: CacheSimulationResult,
    adjacency: CSRGraph,
    knobs: AggregationKnobs,
    feature_length: int,
    *,
    is_gat: bool = False,
) -> PhaseResult:
    """Price a cache simulation as the Aggregation :class:`PhaseResult`."""
    model = AggregationCycleModel(knobs, feature_length, is_gat=is_gat)
    table = knobs.table
    num_vertices = adjacency.num_vertices
    bytes_per_value = table.bytes_per_value

    totals = model.iteration_totals(
        cache_result.edges_processed,
        cache_result.max_edges_per_vertex,
        cache_result.resident_vertices,
    )
    compute_cycles = totals.compute_cycles
    sfu_cycles = totals.sfu_cycles
    mac_ops = totals.addition_ops + totals.multiply_ops
    sfu_ops = totals.sfu_ops

    finalize = model.finalization_cost(num_vertices)
    sfu_cycles += finalize.sfu_cycles
    sfu_ops += finalize.sfu_ops

    # --- DRAM traffic --------------------------------------------------- #
    # Vertex records stream in sequentially (the policy's key guarantee).
    # Random accesses appear only for the id-order ablation baseline; no
    # prefetch hides them, so their cycles are the phase's stall.
    fetch_cycles = dram.sequential_transfer_cycles(table, cache_result.sequential_fetch_bytes)
    random_accesses = cache_result.random_accesses
    random_bytes = cache_result.random_access_bytes
    random_cycles = dram.random_transfer_cycles(
        table, random_accesses, bytes_per_access=feature_length * bytes_per_value
    )

    # Output-buffer partial sums: at the start of each Round the accumulators
    # of the still-unfinished vertices must be resident; whatever exceeds the
    # output buffer spills to DRAM and is read back.  The per-Round
    # unfinished counts come from the cache simulation's α snapshots
    # (snapshot r-1 is the state entering Round r).
    psum_spill_bytes = 0
    for round_index in range(1, max(1, cache_result.num_rounds) + 1):
        snapshots = cache_result.alpha_round_snapshots
        if snapshots and round_index - 1 < len(snapshots):
            unfinished = int(snapshots[round_index - 1].size)
        else:
            unfinished = num_vertices
        live_bytes = unfinished * feature_length * bytes_per_value
        psum_spill_bytes += 2 * max(0, live_bytes - knobs.output_buffer_bytes)
    final_write_bytes = num_vertices * feature_length * bytes_per_value
    spill_cycles = dram.sequential_transfer_cycles(table, psum_spill_bytes)
    writeback_cycles = dram.sequential_transfer_cycles(
        table, cache_result.alpha_writeback_bytes + final_write_bytes
    )

    streaming_cycles = fetch_cycles + spill_cycles + writeback_cycles

    # α writebacks plus the GAT per-vertex (e_i1, e_i2) terms travel with the
    # vertex records and are already part of sequential_fetch_bytes /
    # alpha_writeback_bytes.
    dram_read_bytes = (
        cache_result.sequential_fetch_bytes + random_bytes + psum_spill_bytes // 2
    )
    dram_write_bytes = (
        cache_result.alpha_writeback_bytes + psum_spill_bytes // 2 + final_write_bytes
    )

    preprocessing_cycles = int(np.ceil(num_vertices / table.degree_binning_ops_per_cycle))
    if not knobs.enable_degree_aware_caching:
        preprocessing_cycles = 0

    input_buffer_bytes = 2 * mac_ops * bytes_per_value // max(1, feature_length) * feature_length
    output_buffer_bytes = 2 * (mac_ops // 2) * bytes_per_value

    return PhaseResult(
        name="aggregation",
        compute_cycles=int(compute_cycles),
        memory_stall_cycles=int(random_cycles),
        streaming_memory_cycles=int(streaming_cycles),
        sfu_cycles=int(sfu_cycles),
        preprocessing_cycles=preprocessing_cycles,
        mac_operations=int(mac_ops),
        sfu_operations=int(sfu_ops),
        dram_read_bytes=int(dram_read_bytes),
        dram_write_bytes=int(dram_write_bytes),
        dram_random_accesses=int(random_accesses),
        input_buffer_bytes=int(input_buffer_bytes),
        output_buffer_bytes=int(output_buffer_bytes),
        dram_input_stream_bytes=int(cache_result.sequential_fetch_bytes + random_bytes),
        dram_output_stream_bytes=int(
            psum_spill_bytes + final_write_bytes + cache_result.alpha_writeback_bytes
        ),
    )
