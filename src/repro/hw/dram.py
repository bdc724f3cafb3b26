"""Off-chip HBM DRAM timing.

The original evaluation integrates Ramulator to model HBM 2.0 at 256 GB/s;
the reproduction replaces it with a bandwidth/latency model that
distinguishes the two access patterns GNNIE's caching policy is designed
around:

* **sequential (streaming) transfers** — the only kind GNNIE issues, charged
  at the full burst bandwidth, and
* **random accesses** — charged a per-access row-activation penalty, paid
  by GNNIE with degree-aware caching disabled (the id-order ablation) to
  quantify the cost the policy avoids.

Each function reads the bandwidth, the clock and the random-access timing
(activation penalty, access granule, memory-level parallelism) from the
:class:`~repro.hw.config.GNNIETable` it is given.  DRAM energy (the paper's
3.97 pJ/bit for HBM 2.0) is priced by :func:`repro.hw.energy.dram_energy`.
"""

from __future__ import annotations

import numpy as np

from repro.hw.config import GNNIETable

__all__ = ["dram_bytes_per_cycle", "random_transfer_cycles", "sequential_transfer_cycles"]


def dram_bytes_per_cycle(table: GNNIETable) -> float:
    """HBM bandwidth in bytes per core cycle."""
    return table.dram_bandwidth_bytes_per_s / table.frequency_hz


def sequential_transfer_cycles(table: GNNIETable, num_bytes: int) -> int:
    """Cycles to stream ``num_bytes`` sequentially at peak bandwidth."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    return int(-(-num_bytes // dram_bytes_per_cycle(table))) if num_bytes else 0


def random_transfer_cycles(
    table: GNNIETable, num_accesses: int, bytes_per_access: int | None = None
) -> int:
    """Cycles for ``num_accesses`` random accesses.

    Each access pays the activation penalty and transfers at least one
    access granule, so random access bandwidth is far below streaming
    bandwidth — the gap GNNIE's caching policy exploits.
    """
    if num_accesses < 0:
        raise ValueError("num_accesses must be non-negative")
    granularity = table.random_access_granularity_bytes
    granule = bytes_per_access or granularity
    transfer_bytes = num_accesses * max(granule, granularity)
    stream_cycles = sequential_transfer_cycles(table, transfer_bytes)
    penalty_cycles = int(
        np.ceil(
            num_accesses * table.random_access_penalty_cycles / table.random_access_parallelism
        )
    )
    return penalty_cycles + stream_cycles
