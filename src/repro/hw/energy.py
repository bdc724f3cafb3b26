"""Energy, power and area model of the GNNIE accelerator.

The paper extracts component energies from Synopsys Design Compiler synthesis
at 32 nm and CACTI 6.5 for the on-chip buffers, and reports:

* chip area 15.6 mm², clock 1.3 GHz, power 3.9 W,
* HBM 2.0 energy 3.97 pJ/bit,
* an energy breakdown (Fig. 14) dominated by DRAM traffic from the output
  buffer (partial-sum spills), and
* energy efficiency between 7.4×10³ and 6.7×10⁶ inferences/kJ (Fig. 15).

We encode per-operation and per-byte energy constants representative of a
32 nm node (MAC ≈ 1 pJ, SRAM access a few pJ/byte scaled by capacity —
CACTI-like square-root scaling) and calibrate the aggregate so the chip-level
numbers above are reproduced.  The *breakdown shape* is what the benchmarks
check; the constants are documented here so a user can re-derive them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import SFU_COLUMNS, AcceleratorConfig

__all__ = ["EnergyModel", "EnergyBreakdown", "AreaModel"]


@dataclass
class EnergyBreakdown:
    """Energy (in picojoules) attributed to each architectural component."""

    mac_pj: float = 0.0
    sfu_pj: float = 0.0
    input_buffer_pj: float = 0.0
    output_buffer_pj: float = 0.0
    weight_buffer_pj: float = 0.0
    dram_input_pj: float = 0.0
    dram_output_pj: float = 0.0
    dram_weight_pj: float = 0.0
    static_pj: float = 0.0

    @property
    def dram_pj(self) -> float:
        return self.dram_input_pj + self.dram_output_pj + self.dram_weight_pj

    @property
    def on_chip_buffer_pj(self) -> float:
        return self.input_buffer_pj + self.output_buffer_pj + self.weight_buffer_pj

    @property
    def total_pj(self) -> float:
        return (
            self.mac_pj
            + self.sfu_pj
            + self.on_chip_buffer_pj
            + self.dram_pj
            + self.static_pj
        )

    @property
    def total_joules(self) -> float:
        return self.total_pj * 1e-12

    def as_dict(self) -> dict[str, float]:
        return {
            "mac_pj": self.mac_pj,
            "sfu_pj": self.sfu_pj,
            "input_buffer_pj": self.input_buffer_pj,
            "output_buffer_pj": self.output_buffer_pj,
            "weight_buffer_pj": self.weight_buffer_pj,
            "dram_input_pj": self.dram_input_pj,
            "dram_output_pj": self.dram_output_pj,
            "dram_weight_pj": self.dram_weight_pj,
            "static_pj": self.static_pj,
            "total_pj": self.total_pj,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            mac_pj=self.mac_pj + other.mac_pj,
            sfu_pj=self.sfu_pj + other.sfu_pj,
            input_buffer_pj=self.input_buffer_pj + other.input_buffer_pj,
            output_buffer_pj=self.output_buffer_pj + other.output_buffer_pj,
            weight_buffer_pj=self.weight_buffer_pj + other.weight_buffer_pj,
            dram_input_pj=self.dram_input_pj + other.dram_input_pj,
            dram_output_pj=self.dram_output_pj + other.dram_output_pj,
            dram_weight_pj=self.dram_weight_pj + other.dram_weight_pj,
            static_pj=self.static_pj + other.static_pj,
        )


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation / per-byte energy constants (32 nm class)."""

    mac_energy_pj: float = 1.0
    sfu_op_energy_pj: float = 2.5
    #: SRAM access energies per byte, CACTI-6.5-like values for the paper's
    #: buffer capacities (larger arrays cost more per access).
    input_buffer_pj_per_byte: float = 0.8
    output_buffer_pj_per_byte: float = 1.2
    weight_buffer_pj_per_byte: float = 0.6
    dram_pj_per_bit: float = 3.97
    #: Static (leakage + clock) power of the 15.6 mm² chip at 32 nm.
    static_power_watts: float = 0.9

    def mac_energy(self, num_macs: int) -> float:
        return self.mac_energy_pj * num_macs

    def sfu_energy(self, num_ops: int) -> float:
        return self.sfu_op_energy_pj * num_ops

    def buffer_energy(self, buffer_name: str, num_bytes: int) -> float:
        per_byte = {
            "input": self.input_buffer_pj_per_byte,
            "output": self.output_buffer_pj_per_byte,
            "weight": self.weight_buffer_pj_per_byte,
        }.get(buffer_name)
        if per_byte is None:
            raise ValueError(f"unknown buffer {buffer_name!r}")
        return per_byte * num_bytes

    def dram_energy(self, num_bytes: int) -> float:
        return self.dram_pj_per_bit * 8.0 * num_bytes

    def static_energy(self, cycles: int, frequency_hz: float) -> float:
        """Leakage/clock energy over ``cycles`` at the given frequency, in pJ."""
        seconds = cycles / frequency_hz
        return self.static_power_watts * seconds * 1e12


@dataclass(frozen=True)
class AreaModel:
    """Area model reproducing the paper's 15.6 mm² at 32 nm.

    Component densities are representative 32 nm figures: a fixed-point MAC
    plus its registers ≈ 2600 µm², SRAM ≈ 4.5 mm² per MB including periphery,
    plus a fixed overhead for the controller, scheduler, RLC decoder,
    activation unit and the HBM PHY.
    """

    mac_area_mm2: float = 0.0028
    sram_area_mm2_per_mb: float = 5.5
    sfu_area_mm2: float = 0.015
    fixed_overhead_mm2: float = 2.3

    def chip_area_mm2(self, config: AcceleratorConfig) -> float:
        buffer_mb = (
            config.input_buffer_bytes_or_default
            + config.output_buffer_bytes
            + config.weight_buffer_bytes
        ) / (1024 * 1024)
        return (
            self.mac_area_mm2 * config.total_macs
            + self.sram_area_mm2_per_mb * buffer_mb
            + self.sfu_area_mm2 * SFU_COLUMNS * config.num_rows
            + self.fixed_overhead_mm2
        )
