"""Aggregation-phase performance simulation.

Combines the cache-controller simulation (which vertices are resident when,
how many DRAM fetches the policy needs) with the Aggregation cycle model
(how long the CPE array takes to process each cached-subgraph iteration) and
with the output-buffer partial-sum traffic model.
"""

from __future__ import annotations

import numpy as np

from repro.cache.controller import UndirectedEdgeIndex, vertex_record_bytes
from repro.cache.hierarchy import MissPathHierarchy
from repro.cache.policies import simulate_policy
from repro.cache.policy import CacheSimulationResult
from repro.graph.csr import CSRGraph
from repro.hw.config import AcceleratorConfig
from repro.hw.dram import HBMModel
from repro.mapping.aggregation import AggregationCycleModel
from repro.sim.results import PhaseResult

__all__ = [
    "input_buffer_capacity",
    "run_cache_simulation",
    "aggregation_phase_from_cache",
]

#: Preprocessing (degree binning / vertex reordering) throughput.
_PREPROCESSING_OPS_PER_CYCLE = 8


def input_buffer_capacity(
    adjacency: CSRGraph, config: AcceleratorConfig, feature_length: int
) -> tuple[int, int]:
    """``(capacity_vertices, record_bytes)`` of the configured input buffer.

    The single place where the buffer's vertex capacity is derived from the
    per-vertex record size; the CLI and the benchmarks reuse it so their
    tables are computed at exactly the capacity the simulator charges.
    """
    record_bytes = vertex_record_bytes(
        feature_length,
        adjacency.average_degree(),
        bytes_per_value=config.bytes_per_value,
    )
    return max(1, config.input_buffer_bytes_or_default // record_bytes), record_bytes


def run_cache_simulation(
    adjacency: CSRGraph,
    config: AcceleratorConfig,
    feature_length: int,
    *,
    metrics=None,
    edge_index: UndirectedEdgeIndex | None = None,
) -> CacheSimulationResult:
    """Run the caching policy selected by the configuration.

    With ``enable_degree_aware_caching`` the degree-aware controller is used
    (sequential DRAM traffic only); otherwise the vertex-id-order baseline is
    simulated, which pays random DRAM accesses for non-resident neighbors.

    When the configuration enables miss-path mechanisms
    (``config.miss_path_mechanisms``), the policy additionally emits its
    miss/eviction trace, the hierarchy filters it, and the outcome is
    attached to the result (``result.miss_path``); downstream cycle/energy
    models then charge only the *net* random accesses to DRAM.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`; when
    given, the hierarchy records its per-mechanism hit/miss/eviction
    counters into it (see :meth:`MissPathHierarchy.filter`).

    ``edge_index`` is an optional pre-built
    :class:`~repro.cache.controller.UndirectedEdgeIndex` of ``adjacency``
    (a pure function of the graph); batch execution builds it once per
    graph and shares it across the distinct buffer configurations.
    """
    capacity, record_bytes = input_buffer_capacity(adjacency, config, feature_length)
    result = simulate_policy(
        "degree_aware" if config.enable_degree_aware_caching else "vertex_order",
        adjacency,
        capacity,
        bytes_per_vertex=record_bytes,
        gamma=config.gamma,
        collect_trace=config.miss_path_enabled,
        edge_index=edge_index,
    )
    if result.trace is not None:
        hierarchy = MissPathHierarchy.from_accelerator_config(config)
        result.miss_path = hierarchy.filter(result.trace, metrics=metrics)
    return result


def aggregation_phase_from_cache(
    cache_result: CacheSimulationResult,
    adjacency: CSRGraph,
    config: AcceleratorConfig,
    feature_length: int,
    *,
    is_gat: bool = False,
    name: str = "aggregation",
) -> PhaseResult:
    """Convert a cache simulation into the Aggregation :class:`PhaseResult`."""
    model = AggregationCycleModel(config, feature_length, is_gat=is_gat)
    dram = HBMModel(
        bandwidth_bytes_per_s=config.dram_bandwidth_bytes_per_s,
        frequency_hz=config.frequency_hz,
        energy_pj_per_bit=config.dram_energy_pj_per_bit,
    )
    num_vertices = adjacency.num_vertices
    bytes_per_value = config.bytes_per_value

    # One vectorized pricing pass over the whole iteration sequence
    # (bit-exact with the per-record scalar model; see iteration_totals).
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
    # Vertex records stream in sequentially (the policy's key guarantee);
    # random accesses appear only for the id-order ablation baseline.  The
    # miss-path hierarchy (when configured) resolves part of those misses:
    # victim/miss-cache hits are on chip and free, while stream-buffer hits
    # were prefetched from DRAM — their bytes are charged as sequential
    # traffic below.  Only *consumed* prefetches are charged (an idealized
    # prefetch-bypass); the full fill traffic including wasted prefetches is
    # reported on HierarchyResult.prefetch_fill_records.
    prefetch_bytes = (
        cache_result.miss_path.sequential_prefetch_bytes if cache_result.miss_path else 0
    )
    fetch_cycles = dram.sequential_transfer_cycles(
        cache_result.sequential_fetch_bytes + prefetch_bytes
    )
    random_granule = max(
        dram.random_access_granularity_bytes, feature_length * bytes_per_value
    )
    net_random_accesses = cache_result.net_random_accesses
    net_random_bytes = cache_result.net_random_access_bytes
    if cache_result.random_accesses_avoided:
        dram.note_avoided_random_accesses(
            cache_result.random_accesses_avoided, bytes_per_access=random_granule
        )
    random_cycles = 0
    if net_random_accesses:
        random_cycles = dram.random_transfer_cycles(
            net_random_accesses, bytes_per_access=random_granule
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
        psum_spill_bytes += 2 * max(0, live_bytes - config.output_buffer_bytes)
    final_write_bytes = num_vertices * feature_length * bytes_per_value
    spill_cycles = dram.sequential_transfer_cycles(psum_spill_bytes)
    writeback_cycles = dram.sequential_transfer_cycles(
        cache_result.alpha_writeback_bytes + final_write_bytes
    )

    # Double buffering overlaps the streaming traffic with computation at the
    # phase level; only the excess is exposed as stall cycles.  Random
    # accesses (baseline only) cannot be prefetched and are fully exposed.
    busy_cycles = compute_cycles + sfu_cycles
    streaming_cycles = fetch_cycles + spill_cycles + writeback_cycles
    memory_stall_cycles = max(0, streaming_cycles - busy_cycles) + random_cycles

    # α writebacks plus the GAT per-vertex (e_i1, e_i2) terms travel with the
    # vertex records and are already part of sequential_fetch_bytes /
    # alpha_writeback_bytes.
    dram_read_bytes = (
        cache_result.sequential_fetch_bytes
        + prefetch_bytes
        + net_random_bytes
        + psum_spill_bytes // 2
    )
    dram_write_bytes = (
        cache_result.alpha_writeback_bytes + psum_spill_bytes // 2 + final_write_bytes
    )

    preprocessing_cycles = int(np.ceil(num_vertices / _PREPROCESSING_OPS_PER_CYCLE))
    if not config.enable_degree_aware_caching:
        preprocessing_cycles = 0

    input_buffer_bytes = 2 * mac_ops * bytes_per_value // max(1, feature_length) * feature_length
    output_buffer_bytes = 2 * (mac_ops // 2) * bytes_per_value

    return PhaseResult(
        name=name,
        compute_cycles=int(compute_cycles),
        memory_stall_cycles=int(memory_stall_cycles),
        streaming_memory_cycles=int(streaming_cycles),
        sfu_cycles=int(sfu_cycles),
        preprocessing_cycles=preprocessing_cycles,
        mac_operations=int(mac_ops),
        sfu_operations=int(sfu_ops),
        dram_read_bytes=int(dram_read_bytes),
        dram_write_bytes=int(dram_write_bytes),
        dram_random_accesses=int(net_random_accesses),
        dram_random_accesses_avoided=int(cache_result.random_accesses_avoided),
        input_buffer_bytes=int(input_buffer_bytes),
        output_buffer_bytes=int(output_buffer_bytes),
        dram_input_stream_bytes=int(
            cache_result.sequential_fetch_bytes + prefetch_bytes + net_random_bytes
        ),
        dram_output_stream_bytes=int(
            psum_spill_bytes + final_write_bytes + cache_result.alpha_writeback_bytes
        ),
    )
