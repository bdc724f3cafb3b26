"""Roofline / bottleneck analysis of simulated inferences.

Given an :class:`~repro.sim.results.InferenceResult`, classify every phase of
every layer as compute-bound or memory-bound, compute its arithmetic
intensity (MACs per DRAM byte), and summarize where the cycles go.  This is
the analysis behind statements such as "Weighting is not memory-bounded"
(Section IV-A) and explains the utilization differences across datasets in
Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import GNNIE_TABLE, AcceleratorConfig
from repro.hw.dram import dram_bytes_per_cycle
from repro.sim.results import InferenceResult, PhaseResult

__all__ = ["PhaseRoofline", "RooflineSummary", "roofline_analysis"]


@dataclass(frozen=True)
class PhaseRoofline:
    """Bottleneck classification of one phase of one layer."""

    layer_index: int
    phase: str
    compute_cycles: int
    streaming_memory_cycles: int
    exposed_stall_cycles: int
    arithmetic_intensity: float
    bound: str

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.exposed_stall_cycles


@dataclass(frozen=True)
class RooflineSummary:
    """Whole-inference roofline summary."""

    phases: tuple[PhaseRoofline, ...]
    machine_balance_macs_per_byte: float

    @property
    def compute_bound_fraction(self) -> float:
        """Fraction of total cycles spent in compute-bound phases."""
        total = sum(phase.total_cycles for phase in self.phases)
        if total == 0:
            return 0.0
        compute_bound = sum(
            phase.total_cycles for phase in self.phases if phase.bound == "compute"
        )
        return compute_bound / total

    def dominant_phase(self) -> str:
        """Name of the phase type consuming the most cycles."""
        totals: dict[str, int] = {}
        for phase in self.phases:
            totals[phase.phase] = totals.get(phase.phase, 0) + phase.total_cycles
        return max(totals, key=totals.get)


def _classify(phase: PhaseResult, machine_balance: float) -> tuple[float, str]:
    dram_bytes = max(1, phase.dram_bytes)
    intensity = phase.mac_operations / dram_bytes
    busy = phase.compute_cycles + phase.sfu_cycles
    memory = phase.streaming_memory_cycles + phase.memory_stall_cycles
    if phase.memory_stall_cycles > 0 or (memory > busy and intensity < machine_balance):
        return intensity, "memory"
    return intensity, "compute"


def roofline_analysis(
    result: InferenceResult, config: AcceleratorConfig | None = None
) -> RooflineSummary:
    """Classify every phase of a simulated inference on the default chip."""
    cfg = config or AcceleratorConfig()
    # Machine balance: MACs the array can retire per byte of DRAM bandwidth.
    machine_balance = cfg.total_macs / dram_bytes_per_cycle(GNNIE_TABLE)
    phases: list[PhaseRoofline] = []
    for layer in result.layers:
        for phase in layer.phases():
            intensity, bound = _classify(phase, machine_balance)
            phases.append(
                PhaseRoofline(
                    layer_index=layer.layer_index,
                    phase=phase.name,
                    compute_cycles=phase.compute_cycles + phase.sfu_cycles,
                    streaming_memory_cycles=phase.streaming_memory_cycles,
                    exposed_stall_cycles=phase.memory_stall_cycles,
                    arithmetic_intensity=round(intensity, 4),
                    bound=bound,
                )
            )
    return RooflineSummary(phases=tuple(phases), machine_balance_macs_per_byte=machine_balance)
