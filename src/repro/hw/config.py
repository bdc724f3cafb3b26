"""GNNIE's fixed design (:data:`GNNIE_TABLE`) and the knobs it explores
(:class:`AcceleratorConfig`).

The paper fixes the chip it evaluates (Section VIII-A): a 16×16 CPE array
at 1.3 GHz with 1-byte weights and features, a 128 KB double-buffered
weight buffer and HBM 2.0 at 256 GB/s.  Those numbers and the other fixed
hardware numbers GNNIE's cost model reads (energies, areas, DRAM timing,
SFU latencies, preprocessing throughputs, index width, the scale-out link)
sit in one frozen table, :data:`GNNIE_TABLE`, each with its source.

The table does not hold every fixed number on the priced path.  Load
redistribution's transfer overhead (0.05), cap (half the heavy row's load)
and ``rows // 4`` row pairs, the degree-aware walk's ``capacity // 8``
replacement batch, :data:`~repro.plan.ir.HIDDEN_DENSITY` (0.6), the
256 KB / 512 KB input-buffer auto-sizing below, the neighbor sampler's
65,536-draw pool, Weighting's ``// 4`` on output-buffer traffic and
DiffPool's ``hidden // 4`` clusters are fixed where they are read.

What the paper explores, and what the ablations and the tuner vary, is an
:class:`AcceleratorConfig`:

* the Flexible MAC allocation — 4 MACs/CPE for rows 1–8, 5 for rows 9–12
  and 6 for rows 13–16 (1216 MACs in total),
* 256 KB / 512 KB input buffer (small / large datasets), 1 MB output buffer,
* cache eviction threshold γ = 5,
* one flag per optimization, so the ablation benchmarks (Figs. 11, 16–18)
  can disable it without touching code paths.

The victim / miss / stream hierarchy behind the input buffer is not part of
the priced design: degree-aware caching streams every record, so it has no
miss to filter.  It is an ablation over the id-order policies' misses in
:mod:`repro.cache.miss_path`, sized by the arguments of its one table
function.

The named design points of the optimization analysis (Section VIII-E) are
provided as constructors: Design A (uniform 4 MACs/CPE baseline), B (5), C
(6), D (7) and E (the flexible-MAC GNNIE configuration).

The executor prices on its own table (``GNNIEExecutor.table``, by default
:data:`GNNIE_TABLE`); the config's MAC-count properties describe the
default chip.  Each memoized stage reads a frozen view of a config and a
table, built by :func:`pricing_view`: its memo key and all it sees, so
reading any other name raises ``AttributeError``.  The phase views carry
the table and count MACs with its columns; the cache view carries the two
entries the walk reads, so any other entry re-prices from the memoized walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, TypeVar

__all__ = [
    "AcceleratorConfig",
    "AggregationKnobs",
    "CacheKnobs",
    "DESIGN_PRESETS",
    "FIT",
    "GNNIE_TABLE",
    "GNNIETable",
    "WeightingKnobs",
    "array_macs",
    "design_preset",
    "entry",
    "pricing_view",
]

#: The source of a table entry this model chose rather than took from a
#: published architecture parameter: a representative value, or one fitted
#: to measured or reported behaviour.
FIT = "fit"


def entry(value: float, source: str) -> Any:
    """A table field holding ``value``, with ``source`` in its metadata."""
    return field(default=value, metadata={"source": source})


@dataclass(frozen=True, slots=True)
class GNNIETable:
    """GNNIE's fixed hardware numbers, each with its source.

    The fixed modeling constants the module docstring lists are read where
    they are used, not from this table.

    Area is calibrated: the default configuration's chip reads 15.6023 mm²
    against the paper's 15.6 mm².  Power is not: the paper reports 3.9 W,
    while the five families on Cora, Citeseer and Pubmed at full scale
    average 5.1–10.3 W with DRAM energy and 1.0–2.7 W without it.
    """

    # --- CPE array and clock ------------------------------------------- #
    num_cols: int = entry(16, "GNNIE Section VIII-A: 16x16 CPE array")
    frequency_hz: float = entry(1.3e9, "GNNIE Section VIII-A: 1.3 GHz clock")
    #: Special-function-unit columns interleaved in the CPE array (Section
    #: III).  Each column gives every CPE row one SFU lane, so the array has
    #: ``sfu_columns * num_rows`` lanes for exp, LeakyReLU and divide.
    sfu_columns: int = entry(4, FIT)
    #: SFU latencies in cycles: the lookup-table exponential, LeakyReLU and
    #: the softmax division.
    exp_latency_cycles: int = entry(2, FIT)
    leaky_relu_latency_cycles: int = entry(1, FIT)
    divide_latency_cycles: int = entry(4, FIT)

    # --- Datapath and buffers ------------------------------------------ #
    bytes_per_value: int = entry(1, "GNNIE Section VIII-A: 1-byte weights and features")
    weight_buffer_bytes: int = entry(
        128 * 1024, "GNNIE Section VIII-A: 4K x 16 x 2 = 128 KB weight buffer"
    )
    #: Bytes of one index word: a CSR neighbor index, an α counter or a CSR
    #: offset.
    index_bytes: int = entry(4, FIT)

    # --- Preprocessing throughput -------------------------------------- #
    #: Flexible-MAC binning classifies this many block records per cycle: a
    #: streaming counting sort performed while data is fetched.
    binning_ops_per_cycle: int = entry(32, FIT)
    #: Degree binning lays the vertices out in DRAM in descending-degree
    #: order, so every cache fetch is sequential.  It is a linear-time pass,
    #: not a full sort, and the paper includes its cost in the reported
    #: speedups.
    degree_binning_ops_per_cycle: int = entry(8, FIT)

    # --- HBM ----------------------------------------------------------- #
    dram_bandwidth_bytes_per_s: float = entry(256e9, "GNNIE Section VIII-A: HBM 2.0 at 256 GB/s")
    dram_pj_per_bit: float = entry(3.97, "GNNIE Section VIII-A: HBM 2.0 at 3.97 pJ/bit")
    #: Extra cycles per random access (row activation + column access).
    random_access_penalty_cycles: int = entry(40, FIT)
    #: Minimum burst one random access transfers (an HBM access granule).
    random_access_granularity_bytes: int = entry(32, FIT)
    #: Random requests the HBM channels and banks serve concurrently; the
    #: per-access penalty is amortized over them.
    random_access_parallelism: int = entry(8, FIT)

    # --- Inter-chip link (multi-chip scale-out, not in the paper) ------- #
    #: A PCIe-5.0-x16-class serial link: a quarter of HBM bandwidth, the
    #: usual package-escape penalty.
    link_bandwidth_bytes_per_s: float = entry(64e9, FIT)
    #: Per-exchange synchronization and first-flit latency in core cycles.
    link_latency_cycles: int = entry(500, FIT)

    # --- Energy per event: representative 32 nm values, not fitted to the
    # paper's 3.9 W (see the class docstring) ---------------------------- #
    mac_energy_pj: float = entry(1.0, FIT)
    sfu_op_energy_pj: float = entry(2.5, FIT)
    #: SRAM access energies per byte, CACTI-6.5-like values for the paper's
    #: buffer capacities (larger arrays cost more per access).
    input_buffer_pj_per_byte: float = entry(0.8, FIT)
    output_buffer_pj_per_byte: float = entry(1.2, FIT)
    weight_buffer_pj_per_byte: float = entry(0.6, FIT)
    #: Leakage and clock power of the whole chip.
    static_power_watts: float = entry(0.9, FIT)

    # --- Area at 32 nm, calibrated to the paper's 15.6 mm² -------------- #
    #: A fixed-point MAC with its registers.
    mac_area_mm2: float = entry(0.0028, FIT)
    #: SRAM including periphery.
    sram_area_mm2_per_mb: float = entry(5.5, FIT)
    sfu_area_mm2: float = entry(0.015, FIT)
    #: Controller, scheduler, RLC decoder, activation unit and HBM PHY.
    fixed_overhead_mm2: float = entry(2.3, FIT)


GNNIE_TABLE = GNNIETable()


@dataclass(frozen=True)
class AcceleratorConfig:
    """The knobs of a GNNIE instance that the paper's exploration, the
    ablations and the tuner vary."""

    # --- Flexible MAC allocation ---------------------------------------- #
    #: MACs per CPE for each row group; groups split the rows from top
    #: (fewest MACs) to bottom (most MACs).  Paper: (4, 5, 6) over row
    #: groups 1-8, 9-12, 13-16 — encoded here with explicit group sizes.
    macs_per_group: tuple[int, ...] = (4, 5, 6)
    #: Number of CPE rows in each group; they add up to :attr:`num_rows`.
    rows_per_group: tuple[int, ...] = (8, 4, 4)

    # --- On-chip buffers ------------------------------------------------ #
    #: Input-buffer capacity.  ``None`` is the auto-sizing sentinel: "use the
    #: paper's per-dataset sizing" (256 KB small / 512 KB large, Section
    #: VIII-A), resolved against a dataset exactly once, in
    #: :meth:`resolve_input_buffer`.  An explicit integer is respected
    #: everywhere — simulation, area and energy all see the same capacity —
    #: which is what makes input-buffer sweeps meaningful.
    input_buffer_bytes: int | None = None
    output_buffer_bytes: int = 1024 * 1024

    # --- Cache policy ----------------------------------------------------#
    gamma: int = 5

    # --- Optimization feature flags (for ablations) --------------------- #
    enable_flexible_mac: bool = True
    enable_load_redistribution: bool = True
    enable_degree_aware_caching: bool = True
    enable_aggregation_load_balancing: bool = True

    name: str = "GNNIE"

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if len(self.macs_per_group) != len(self.rows_per_group):
            raise ValueError("macs_per_group and rows_per_group must have equal length")
        if min(self.rows_per_group, default=0) <= 0:
            raise ValueError(
                f"rows_per_group {self.rows_per_group}: every row group needs at least one row"
            )
        if any(macs <= 0 for macs in self.macs_per_group):
            raise ValueError("every row group needs at least one MAC per CPE")
        if list(self.macs_per_group) != sorted(self.macs_per_group):
            raise ValueError(
                "macs_per_group must be monotonically non-decreasing (paper, Section IV-C)"
            )
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.input_buffer_bytes is not None and self.input_buffer_bytes <= 0:
            raise ValueError(
                "input_buffer_bytes must be positive (or None for the paper's "
                "per-dataset auto sizing)"
            )

    @property
    def num_rows(self) -> int:
        """CPE rows of the array: the rows of every row group."""
        return sum(self.rows_per_group)

    @property
    def macs_per_row(self) -> tuple[int, ...]:
        """MACs per CPE for each of the ``num_rows`` rows, top to bottom."""
        per_row: list[int] = []
        for macs, rows in zip(self.macs_per_group, self.rows_per_group):
            per_row.extend([macs] * rows)
        return tuple(per_row)

    @property
    def total_macs(self) -> int:
        """Total MAC units across the default chip's array (paper: 1216)."""
        return array_macs(self, GNNIE_TABLE)

    @property
    def num_cpes(self) -> int:
        return self.num_rows * GNNIE_TABLE.num_cols

    @property
    def peak_ops_per_second(self) -> float:
        """Peak throughput counting one MAC as two operations (mult + add)."""
        return 2.0 * self.total_macs * GNNIE_TABLE.frequency_hz

    @property
    def input_buffer_bytes_or_default(self) -> int:
        """Concrete input-buffer capacity for dataset-independent consumers.

        The area model (and anything else that needs a capacity without a
        dataset in hand) cannot resolve the per-dataset auto sizing, so the
        sentinel falls back to the paper's large-dataset 512 KB — the value
        the field used to default to, keeping default-config areas
        byte-identical across the sentinel change.
        """
        if self.input_buffer_bytes is not None:
            return self.input_buffer_bytes
        return 512 * 1024

    def resolve_input_buffer(self, dataset_abbreviation: str) -> "AcceleratorConfig":
        """Resolve the auto-sizing sentinel against a dataset.

        The single place the ``input_buffer_bytes is None`` sentinel turns
        into a concrete capacity: the paper's per-dataset sizing, 256 KB for
        the small citation graphs (Cora, Citeseer) and 512 KB for Pubmed,
        PPI and Reddit (Section VIII-A).  An explicit size is returned
        untouched, so sweep cells that pin ``input_buffer_bytes`` actually
        simulate the capacity they claim (the input-buffer axis regression).
        """
        if self.input_buffer_bytes is not None:
            return self
        small = dataset_abbreviation.upper() in ("CR", "CS", "CORA", "CITESEER")
        return replace(self, input_buffer_bytes=256 * 1024 if small else 512 * 1024)

    def without_optimizations(self) -> "AcceleratorConfig":
        """Baseline variant: uniform MACs, no LR, no degree caching, no LB."""
        return replace(
            self,
            macs_per_group=(self.macs_per_group[0],),
            rows_per_group=(self.num_rows,),
            enable_flexible_mac=False,
            enable_load_redistribution=False,
            enable_degree_aware_caching=False,
            enable_aggregation_load_balancing=False,
            name=f"{self.name}-baseline",
        )


def array_macs(config: AcceleratorConfig, table: GNNIETable) -> int:
    """MAC units across ``config``'s CPE array with ``table``'s columns."""
    return sum(macs * table.num_cols for macs in config.macs_per_row)


@dataclass(frozen=True, slots=True)
class WeightingKnobs:
    """What Weighting pricing reads: the array's rows, the MAC allocation,
    the two balancing flags and the table."""

    num_rows: int
    macs_per_group: tuple[int, ...]
    rows_per_group: tuple[int, ...]
    macs_per_row: tuple[int, ...]
    enable_flexible_mac: bool
    enable_load_redistribution: bool
    table: GNNIETable


@dataclass(frozen=True, slots=True)
class CacheKnobs:
    """What a cache simulation reads: buffer, γ, policy, value and index widths."""

    input_buffer_bytes_or_default: int
    gamma: int
    enable_degree_aware_caching: bool
    bytes_per_value: int
    index_bytes: int


@dataclass(frozen=True, slots=True)
class AggregationKnobs:
    """What Aggregation pricing reads besides its cache simulation.  The
    cycle model reads the total MAC count, not how it is allocated."""

    num_rows: int
    total_macs: int
    enable_aggregation_load_balancing: bool
    enable_degree_aware_caching: bool
    output_buffer_bytes: int
    table: GNNIETable


_View = TypeVar("_View", WeightingKnobs, CacheKnobs, AggregationKnobs)


def pricing_view(kind: type[_View], config: AcceleratorConfig, table: GNNIETable) -> _View:
    """The ``kind`` view of ``config`` on ``table``: the table and the MAC
    count priced on it, each table entry off it, every other field off ``config``."""
    values: dict[str, Any] = {}
    for name in (field.name for field in fields(kind)):
        if name == "table":
            values[name] = table
        elif name == "total_macs":
            values[name] = array_macs(config, table)
        elif name in GNNIETable.__dataclass_fields__:
            values[name] = getattr(table, name)
        else:
            values[name] = getattr(config, name)
    return kind(**values)


def _uniform_design(name: str, macs_per_cpe: int) -> AcceleratorConfig:
    return AcceleratorConfig(
        macs_per_group=(macs_per_cpe,),
        rows_per_group=(16,),
        enable_flexible_mac=False,
        enable_load_redistribution=False,
        name=name,
    )


#: Design points of the β study (Fig. 17) and ablations (Section VIII-E).
DESIGN_PRESETS: dict[str, AcceleratorConfig] = {
    # Design A: baseline, 4 MACs/CPE uniform (1024 MACs).
    "A": _uniform_design("Design A", 4),
    # Designs B-D: uniformly more MACs per CPE.
    "B": _uniform_design("Design B", 5),
    "C": _uniform_design("Design C", 6),
    "D": _uniform_design("Design D", 7),
    # Design E: GNNIE's flexible MAC architecture (1216 MACs).
    "E": AcceleratorConfig(name="Design E (GNNIE)"),
}


def design_preset(name: str) -> AcceleratorConfig:
    """Look up one of the named design points A–E."""
    key = name.strip().upper()
    if key not in DESIGN_PRESETS:
        raise KeyError(f"unknown design {name!r}; known: {sorted(DESIGN_PRESETS)}")
    return DESIGN_PRESETS[key]
