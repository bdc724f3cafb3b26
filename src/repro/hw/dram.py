"""Off-chip HBM DRAM timing model.

The original evaluation integrates Ramulator to model HBM 2.0 at 256 GB/s;
the reproduction replaces it with a bandwidth/latency model that
distinguishes the two access patterns GNNIE's caching policy is designed
around:

* **sequential (streaming) transfers** — the only kind GNNIE issues, charged
  at the full burst bandwidth, and
* **random accesses** — charged a per-access row-activation penalty, paid
  by GNNIE with degree-aware caching disabled (the id-order ablation) to
  quantify the cost the policy avoids.

DRAM energy (the paper's 3.97 pJ/bit for HBM 2.0) is priced by
:meth:`repro.hw.energy.EnergyModel.dram_energy`.
"""

from __future__ import annotations

import numpy as np

from repro.hw.config import GNNIE_TABLE

__all__ = ["HBMModel"]


class HBMModel:
    """Bandwidth/latency model of the HBM 2.0 interface.

    It reads the bandwidth, the clock and the random-access timing
    (activation penalty, access granule, memory-level parallelism) from
    :data:`~repro.hw.config.GNNIE_TABLE`.
    """

    @property
    def bytes_per_cycle(self) -> float:
        return GNNIE_TABLE.dram_bandwidth_bytes_per_s / GNNIE_TABLE.frequency_hz

    def sequential_transfer_cycles(self, num_bytes: int) -> int:
        """Cycles to stream ``num_bytes`` sequentially at peak bandwidth."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return int(-(-num_bytes // self.bytes_per_cycle)) if num_bytes else 0

    def random_transfer_cycles(self, num_accesses: int, bytes_per_access: int | None = None) -> int:
        """Cycles for ``num_accesses`` random accesses.

        Each access pays the activation penalty and transfers at least one
        access granule, so random access bandwidth is far below streaming
        bandwidth — the gap GNNIE's caching policy exploits.
        """
        if num_accesses < 0:
            raise ValueError("num_accesses must be non-negative")
        granularity = GNNIE_TABLE.random_access_granularity_bytes
        granule = bytes_per_access or granularity
        transfer_bytes = num_accesses * max(granule, granularity)
        stream_cycles = int(-(-transfer_bytes // self.bytes_per_cycle)) if transfer_bytes else 0
        penalty_cycles = int(
            np.ceil(
                num_accesses
                * GNNIE_TABLE.random_access_penalty_cycles
                / GNNIE_TABLE.random_access_parallelism
            )
        )
        return penalty_cycles + stream_cycles
