"""Energy, power and area model of the GNNIE accelerator.

The paper extracts component energies from Synopsys Design Compiler synthesis
at 32 nm and CACTI 6.5 for the on-chip buffers, and reports:

* chip area 15.6 mm², clock 1.3 GHz, power 3.9 W,
* HBM 2.0 energy 3.97 pJ/bit,
* an energy breakdown (Fig. 14) dominated by DRAM traffic from the output
  buffer (partial-sum spills), and
* energy efficiency between 7.4×10³ and 6.7×10⁶ inferences/kJ (Fig. 15).

Each function reads the :class:`~repro.hw.config.GNNIETable` it is given;
energies are in picojoules.  The per-event energies and component areas of
the default table are representative of a 32 nm node (MAC ≈ 1 pJ, SRAM
access below 1.5 pJ/byte, larger buffers costing more per access).  Only
the area is calibrated to the paper: the default configuration's chip reads
15.6023 mm².  Power is not: the five families on Cora, Citeseer and Pubmed
at full scale (seed 0, default configuration) average 5.12–10.28 W
including DRAM energy and 1.01–2.66 W without it, against the paper's
3.9 W.  The *breakdown shape* is what the benchmarks check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.hw.config import AcceleratorConfig, GNNIETable, array_macs

__all__ = [
    "EnergyBreakdown",
    "buffer_energy",
    "chip_area_mm2",
    "dram_energy",
    "mac_energy",
    "sfu_energy",
    "static_energy",
]


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
        """Every component in field order, then the total."""
        return {**asdict(self), "total_pj": self.total_pj}

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Component-wise sum."""
        names = [part.name for part in fields(self)]
        return EnergyBreakdown(**{n: getattr(self, n) + getattr(other, n) for n in names})


def mac_energy(table: GNNIETable, num_macs: int) -> float:
    return table.mac_energy_pj * num_macs


def sfu_energy(table: GNNIETable, num_ops: int) -> float:
    return table.sfu_op_energy_pj * num_ops


def buffer_energy(table: GNNIETable, buffer_name: str, num_bytes: int) -> float:
    """SRAM access energy of ``num_bytes`` through the ``input``, ``output``
    or ``weight`` buffer."""
    if buffer_name not in ("input", "output", "weight"):
        raise ValueError(f"unknown buffer {buffer_name!r}")
    return getattr(table, f"{buffer_name}_buffer_pj_per_byte") * num_bytes


def dram_energy(table: GNNIETable, num_bytes: int) -> float:
    return table.dram_pj_per_bit * 8.0 * num_bytes


def static_energy(table: GNNIETable, cycles: int) -> float:
    """Leakage and clock energy over ``cycles`` at the table's clock."""
    seconds = cycles / table.frequency_hz
    return table.static_power_watts * seconds * 1e12


def chip_area_mm2(table: GNNIETable, config: AcceleratorConfig) -> float:
    """Chip area at 32 nm: MACs, SRAM, SFU lanes and a fixed overhead (the
    default table is calibrated to the paper's 15.6 mm²)."""
    buffer_mb = (
        config.input_buffer_bytes_or_default
        + config.output_buffer_bytes
        + table.weight_buffer_bytes
    ) / (1024 * 1024)
    return (
        table.mac_area_mm2 * array_macs(config, table)
        + table.sram_area_mm2_per_mb * buffer_mb
        + table.sfu_area_mm2 * table.sfu_columns * config.num_rows
        + table.fixed_overhead_mm2
    )
