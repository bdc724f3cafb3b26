"""Off-chip HBM DRAM timing model.

The original evaluation integrates Ramulator to model HBM 2.0 at 256 GB/s;
the reproduction replaces it with a bandwidth/latency model that
distinguishes the two access patterns GNNIE's caching policy is designed
around:

* **sequential (streaming) transfers** — the only kind GNNIE issues, charged
  at the full burst bandwidth, and
* **random accesses** — charged a per-access row-activation penalty, used by
  the baseline models (and by GNNIE with degree-aware caching disabled) to
  quantify the cost the policy avoids.

DRAM energy (the paper's 3.97 pJ/bit for HBM 2.0) is priced by
:meth:`repro.hw.energy.EnergyModel.dram_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HBMModel"]


@dataclass
class HBMModel:
    """Bandwidth/latency model of the HBM 2.0 interface.

    Attributes:
        bandwidth_bytes_per_s: Peak sustained bandwidth (256 GB/s).
        frequency_hz: Accelerator clock used to convert time to cycles.
        random_access_penalty_cycles: Extra cycles charged per random access
            (row activation + column access at the accelerator clock).
        random_access_granularity_bytes: Minimum burst transferred per random
            access (a 32-byte HBM access granule).
        random_access_parallelism: Outstanding random requests the HBM
            channels/banks service concurrently (memory-level parallelism);
            the per-access penalty is amortized over this factor.
    """

    bandwidth_bytes_per_s: float = 256e9
    frequency_hz: float = 1.3e9
    random_access_penalty_cycles: int = 40
    random_access_granularity_bytes: int = 32
    random_access_parallelism: int = 8

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0 or self.frequency_hz <= 0:
            raise ValueError("bandwidth and frequency must be positive")

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_bytes_per_s / self.frequency_hz

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
        granule = bytes_per_access or self.random_access_granularity_bytes
        transfer_bytes = num_accesses * max(granule, self.random_access_granularity_bytes)
        stream_cycles = int(-(-transfer_bytes // self.bytes_per_cycle)) if transfer_bytes else 0
        penalty_cycles = int(
            np.ceil(
                num_accesses
                * self.random_access_penalty_cycles
                / max(1, self.random_access_parallelism)
            )
        )
        return penalty_cycles + stream_cycles
