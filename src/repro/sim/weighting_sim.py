"""Weighting-phase performance simulation.

Converts a :class:`~repro.mapping.weighting.WeightingSchedule` into cycles,
DRAM traffic and buffer traffic for one layer.  The weight-stationary
dataflow determines the traffic structure:

* the (RLC-compressed, for the input layer) feature vectors stream from DRAM
  through the input buffer once per pass,
* each pass loads N fresh weight columns into the (double-buffered) weight
  buffer,
* completed output elements stream through the output buffer back to DRAM.

All of it is streaming traffic: the phase reports its cycles and no stall,
and ``GNNIEExecutor._overlap_layer_memory`` decides what is exposed.
"""

from __future__ import annotations

import numpy as np

from repro.hw.config import GNNIETable
from repro.hw.dram import dram_bytes_per_cycle
from repro.mapping.weighting import WeightingSchedule
from repro.sim.results import PhaseResult

__all__ = ["weighting_phase_from_schedule"]


def weighting_phase_from_schedule(
    schedule: WeightingSchedule,
    num_vertices: int,
    in_features: int,
    out_features: int,
    *,
    input_traffic_bits: int,
    table: GNNIETable,
) -> PhaseResult:
    """Build the Weighting :class:`PhaseResult` from a static schedule.

    The schedule holds everything the configuration decides; the value
    width, the array's columns, the HBM bandwidth and the binning
    throughput are ``table``'s.

    The streaming cycles count each pass's fetch (features plus N weight
    columns) ``num_passes + 1`` times.  The extra fetch is the first fill,
    which the layer pass may hide behind another phase's compute.
    """
    bytes_per_value = table.bytes_per_value
    compute_cycles = schedule.compute_cycles

    # --- DRAM traffic ---------------------------------------------------- #
    input_bytes_per_pass = input_traffic_bits // 8
    dram_read_features = input_bytes_per_pass * schedule.num_passes
    dram_read_weights = in_features * out_features * bytes_per_value
    dram_write_outputs = num_vertices * out_features * bytes_per_value

    # --- Streaming fetch cycles (first fill plus one fetch per pass) ----- #
    bytes_per_cycle = dram_bytes_per_cycle(table)
    fetch_cycles_per_pass = int(np.ceil(input_bytes_per_pass / bytes_per_cycle))
    weight_fetch_per_pass = int(
        np.ceil(in_features * table.num_cols * bytes_per_value / bytes_per_cycle)
    )
    per_pass_fetch = fetch_cycles_per_pass + weight_fetch_per_pass
    streaming_memory_cycles = per_pass_fetch * (schedule.num_passes + 1)

    preprocessing_cycles = int(
        np.ceil(
            schedule.assignment.preprocessing_operations / table.binning_ops_per_cycle
        )
    )

    # --- On-chip buffer traffic (for the energy model) -------------------- #
    input_buffer_bytes = dram_read_features + schedule.total_nonzero_macs // max(1, out_features)
    # Each output element is accumulated from num_blocks partial results.
    output_buffer_bytes = (
        2 * num_vertices * out_features * bytes_per_value * max(1, schedule.num_blocks) // 4
    )
    weight_buffer_bytes = dram_read_weights + out_features * in_features * bytes_per_value

    return PhaseResult(
        name="weighting",
        compute_cycles=int(compute_cycles),
        streaming_memory_cycles=int(streaming_memory_cycles),
        preprocessing_cycles=preprocessing_cycles,
        mac_operations=int(schedule.total_nonzero_macs),
        dram_read_bytes=int(dram_read_features + dram_read_weights),
        dram_write_bytes=int(dram_write_outputs),
        input_buffer_bytes=int(input_buffer_bytes),
        output_buffer_bytes=int(output_buffer_bytes),
        weight_buffer_bytes=int(weight_buffer_bytes),
        dram_input_stream_bytes=int(dram_read_features),
        dram_weight_stream_bytes=int(dram_read_weights),
        dram_output_stream_bytes=int(dram_write_outputs),
    )
