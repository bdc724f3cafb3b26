"""Result records produced by the GNNIE performance/energy simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.hw.energy import EnergyBreakdown

__all__ = ["PhaseResult", "LayerResult", "InferenceResult", "ScaleOutResult"]


@dataclass(frozen=True, slots=True)
class PhaseResult:
    """Cycle and traffic accounting of one phase (Weighting / Attention / Aggregation).

    Frozen, so the pricing memos can hand out the priced object itself, and
    slotted, so the phases a memo keeps stay small.
    """

    name: str
    compute_cycles: int = 0
    #: As priced, the stall no prefetch can hide: the random-access cycles
    #: of Aggregation under id-order caching, 0 everywhere else.  After the
    #: executor's layer pass (``GNNIEExecutor._overlap_layer_memory``), the
    #: layer's whole exposed stall, all of it on Aggregation.
    memory_stall_cycles: int = 0
    sfu_cycles: int = 0
    preprocessing_cycles: int = 0
    #: Cycles the phase's streaming (prefetchable) DRAM traffic would take at
    #: full bandwidth; for Weighting this includes the first fill.  The layer
    #: pass hides a layer's streaming cycles behind the busy cycles of all
    #: its phases and adds the excess to Aggregation's stall.
    streaming_memory_cycles: int = 0
    mac_operations: int = 0
    sfu_operations: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    dram_random_accesses: int = 0
    input_buffer_bytes: int = 0
    output_buffer_bytes: int = 0
    weight_buffer_bytes: int = 0
    #: DRAM traffic attributed to each on-chip buffer (Fig. 14 breakdown).
    dram_input_stream_bytes: int = 0
    dram_weight_stream_bytes: int = 0
    dram_output_stream_bytes: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.compute_cycles
            + self.memory_stall_cycles
            + self.sfu_cycles
            + self.preprocessing_cycles
        )

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def merge(self, other: "PhaseResult") -> "PhaseResult":
        """Combine two phase results, every count summed: the executor sums
        the ops of one kind within one layer."""
        counts = (item.name for item in fields(self) if item.name != "name")
        return PhaseResult(
            self.name, **{name: getattr(self, name) + getattr(other, name) for name in counts}
        )


@dataclass(frozen=True, slots=True)
class LayerResult:
    """All phases of one GNN layer."""

    layer_index: int
    in_features: int
    out_features: int
    weighting: PhaseResult
    attention: PhaseResult | None
    aggregation: PhaseResult
    #: Inter-chip halo-exchange cost of this layer (multi-chip scale-out
    #: only; ``None`` on a single chip).  Included in :attr:`total_cycles`
    #: but *not* in :meth:`phases` — the memory-overlap pass and the energy
    #: model reason about on-chip phases only, so a chip's internal
    #: accounting is byte-identical with or without a communication slot.
    communication: PhaseResult | None = None

    @property
    def total_cycles(self) -> int:
        cycles = self.weighting.total_cycles + self.aggregation.total_cycles
        if self.attention is not None:
            cycles += self.attention.total_cycles
        if self.communication is not None:
            cycles += self.communication.total_cycles
        return cycles

    @property
    def communication_cycles(self) -> int:
        return self.communication.total_cycles if self.communication is not None else 0

    @property
    def local_cycles(self) -> int:
        """On-chip cycles of this layer, excluding inter-chip communication."""
        return self.total_cycles - self.communication_cycles

    def phases(self) -> list[PhaseResult]:
        if self.attention is None:
            return [self.weighting, self.aggregation]
        return [self.weighting, self.attention, self.aggregation]


@dataclass
class InferenceResult:
    """Whole-inference outcome for one (dataset, GNN, configuration) triple."""

    dataset: str
    model: str
    config_name: str
    #: The clock of the table the inference was priced on.
    frequency_hz: float
    layers: list[LayerResult] = field(default_factory=list)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    #: Preprocessing cycles charged once per inference (degree sorting).
    global_preprocessing_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return sum(layer.total_cycles for layer in self.layers) + self.global_preprocessing_cycles

    @property
    def latency_seconds(self) -> float:
        return self.total_cycles / self.frequency_hz

    @property
    def total_mac_operations(self) -> int:
        return sum(
            phase.mac_operations for layer in self.layers for phase in layer.phases()
        )

    @property
    def total_dram_bytes(self) -> int:
        return sum(phase.dram_bytes for layer in self.layers for phase in layer.phases())

    @property
    def weighting_cycles(self) -> int:
        return sum(layer.weighting.total_cycles for layer in self.layers)

    @property
    def aggregation_cycles(self) -> int:
        cycles = sum(layer.aggregation.total_cycles for layer in self.layers)
        cycles += sum(
            layer.attention.total_cycles for layer in self.layers if layer.attention is not None
        )
        return cycles

    @property
    def effective_tops(self) -> float:
        """Retired operations per second, in TOPS (one MAC = two operations)."""
        if self.latency_seconds == 0:
            return 0.0
        return 2.0 * self.total_mac_operations / self.latency_seconds / 1e12

    @property
    def energy_joules(self) -> float:
        return self.energy.total_joules

    @property
    def inferences_per_kilojoule(self) -> float:
        """Energy efficiency as plotted in Fig. 15."""
        joules = self.energy_joules
        if joules <= 0:
            return float("inf")
        return 1.0 / (joules / 1000.0)

    def summary(self) -> dict[str, float]:
        return {
            "dataset": self.dataset,
            "model": self.model,
            "config": self.config_name,
            "cycles": self.total_cycles,
            "latency_s": self.latency_seconds,
            "weighting_cycles": self.weighting_cycles,
            "aggregation_cycles": self.aggregation_cycles,
            "macs": self.total_mac_operations,
            "dram_bytes": self.total_dram_bytes,
            "effective_tops": self.effective_tops,
            "energy_j": self.energy_joules,
            "inferences_per_kj": self.inferences_per_kilojoule,
        }


@dataclass
class ScaleOutResult(InferenceResult):
    """Combined outcome of one inference partitioned across ``num_chips`` chips.

    Per-layer time is ``MAX(per-chip local cycles) + MAX(per-chip halo
    communication cycles)`` — the chips compute in parallel, then synchronize
    on the slowest halo exchange before the next layer.  Aggregate counters
    (MACs, DRAM traffic, energy) are *sums* over chips; the stored
    ``combined_*`` fields carry the pre-combined totals so the inherited
    properties (and therefore :meth:`summary`) report fleet-level numbers
    without per-chip ``layers`` being retained.
    """

    num_chips: int = 1
    partition_method: str = "chunk"
    #: Per-chip total cycles (local + that chip's communication), for
    #: imbalance reporting.
    chip_cycles: tuple[int, ...] = ()
    #: Per-chip on-chip compute cycles (communication excluded).  The
    #: scaling benchmark pins ``max(chip_local_cycles)`` monotonically
    #: non-increasing in the chip count: partitions only shrink, while the
    #: halo wait in :attr:`chip_cycles` grows with the cut.
    chip_local_cycles: tuple[int, ...] = ()
    #: Sum over chips of distinct remote vertices received per layer stack.
    halo_vertices: int = 0
    #: Total inter-chip traffic in bytes across all layers and chips.
    halo_bytes: int = 0
    combined_cycles: int = 0
    combined_communication_cycles: int = 0
    combined_macs: int = 0
    combined_dram_bytes: int = 0
    combined_weighting_cycles: int = 0
    combined_aggregation_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.combined_cycles

    @property
    def total_mac_operations(self) -> int:
        return self.combined_macs

    @property
    def total_dram_bytes(self) -> int:
        return self.combined_dram_bytes

    @property
    def weighting_cycles(self) -> int:
        return self.combined_weighting_cycles

    @property
    def aggregation_cycles(self) -> int:
        return self.combined_aggregation_cycles

    @property
    def communication_cycles(self) -> int:
        return self.combined_communication_cycles

    @property
    def chip_imbalance(self) -> float:
        """``max(chip cycles) / mean(chip cycles)`` — 1.0 is a perfect split."""
        busy = [cycles for cycles in self.chip_cycles if cycles > 0]
        if not busy:
            return 1.0
        return max(busy) * len(busy) / sum(busy)

    def summary(self) -> dict[str, float]:
        row = super().summary()
        if self.num_chips > 1:
            row["chips"] = self.num_chips
            row["partition_method"] = self.partition_method
            row["chip_imbalance"] = self.chip_imbalance
            row["communication_cycles"] = self.communication_cycles
            row["halo_vertices"] = self.halo_vertices
            row["halo_bytes"] = self.halo_bytes
        return row
