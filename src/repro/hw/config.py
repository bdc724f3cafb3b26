"""Accelerator configuration (the GNNIE design point and its ablation variants).

All architectural parameters reported in Section VIII-A of the paper are
captured in :class:`AcceleratorConfig`:

* 16×16 CPE array at 1.3 GHz,
* the Flexible MAC allocation — 4 MACs/CPE for rows 1–8, 5 for rows 9–12 and
  6 for rows 13–16 (1216 MACs in total),
* 256 KB / 512 KB input buffer (small / large datasets), 1 MB output buffer,
  128 KB double-buffered weight buffer,
* HBM 2.0 at 256 GB/s,
* cache eviction threshold γ = 5.

The named design points of the optimization analysis (Section VIII-E) are
provided as constructors: Design A (uniform 4 MACs/CPE baseline), B (5), C
(6), D (7) and E (the flexible-MAC GNNIE configuration).  Feature flags allow
the ablation benchmarks (Figs. 16–18) to disable individual optimizations
without touching code paths.

Each memoized pricing stage reads a frozen view of the configuration built
by :func:`pricing_view`: exactly the values the stage reads, under the
configuration's own names.  The view is the stage's memo key and all of the
configuration it sees; reading any other name raises ``AttributeError``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from typing import TypeVar

__all__ = [
    "AcceleratorConfig",
    "AggregationKnobs",
    "CacheKnobs",
    "DESIGN_PRESETS",
    "MISS_PATH_MECHANISMS",
    "SFU_COLUMNS",
    "WeightingKnobs",
    "design_preset",
    "pricing_view",
]

#: Special-function-unit columns interleaved in the CPE array (Section III).
#: Each column gives every CPE row one SFU lane, so the array has
#: ``SFU_COLUMNS * num_rows`` lanes for exp, LeakyReLU and divide.
SFU_COLUMNS = 4

#: Miss-path structures behind the input buffer (:mod:`repro.cache`): a
#: victim cache of evicted records, a tag-only miss cache and stream
#: buffers.  This order is the one the tune proposer toggles them in, so it
#: is part of tuned candidate names and their cell keys.
MISS_PATH_MECHANISMS = ("victim", "miss", "stream")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Architectural and policy parameters of a GNNIE instance."""

    # --- CPE array ----------------------------------------------------- #
    num_rows: int = 16
    num_cols: int = 16
    #: MACs per CPE for each row group; groups split the rows evenly from
    #: top (fewest MACs) to bottom (most MACs).  Paper: (4, 5, 6) over row
    #: groups 1-8, 9-12, 13-16 — encoded here with explicit group sizes.
    macs_per_group: tuple[int, ...] = (4, 5, 6)
    #: Number of CPE rows in each group (must sum to num_rows).
    rows_per_group: tuple[int, ...] = (8, 4, 4)
    frequency_hz: float = 1.3e9

    # --- On-chip buffers ------------------------------------------------ #
    #: Input-buffer capacity.  ``None`` is the auto-sizing sentinel: "use the
    #: paper's per-dataset sizing" (256 KB small / 512 KB large, Section
    #: VIII-A), resolved against a dataset exactly once, in
    #: :meth:`resolve_input_buffer`.  An explicit integer is respected
    #: everywhere — simulation, area and energy all see the same capacity —
    #: which is what makes input-buffer sweeps meaningful.
    input_buffer_bytes: int | None = None
    output_buffer_bytes: int = 1024 * 1024
    weight_buffer_bytes: int = 128 * 1024
    bytes_per_value: int = 1

    # --- Off-chip memory ------------------------------------------------ #
    dram_bandwidth_bytes_per_s: float = 256e9

    # --- Inter-chip link (multi-chip scale-out) ------------------------- #
    #: Chip-to-chip link bandwidth for halo-feature exchange when a graph is
    #: partitioned across several GNNIE instances (``repro.scaleout``).  The
    #: 64 GB/s default models a PCIe-5.0-x16-class serial link — a quarter of
    #: HBM bandwidth, the usual package-escape penalty.
    link_bandwidth_bytes_per_s: float = 64e9
    #: Fixed per-layer link latency (synchronization + first-flit) in core
    #: cycles, charged once per halo exchange regardless of volume.
    link_latency_cycles: int = 500

    # --- Cache policy ----------------------------------------------------#
    gamma: int = 5

    # --- Miss-path hierarchy behind the input buffer -------------------- #
    #: Names from :data:`MISS_PATH_MECHANISMS`, probed in parallel on every
    #: input-buffer miss in this order; an empty tuple disables the
    #: hierarchy (every miss goes straight to DRAM).  Unknown and repeated
    #: names are rejected at construction.
    miss_path_mechanisms: tuple[str, ...] = ()
    victim_cache_entries: int = 64
    #: Tag-only structure, so a tag store exceeding the input buffer's
    #: vertex capacity is still cheap (4-byte tags vs ~256-byte records).
    miss_cache_entries: int = 4096
    stream_buffer_count: int = 4
    stream_buffer_depth: int = 16

    # --- Optimization feature flags (for ablations) --------------------- #
    enable_flexible_mac: bool = True
    enable_load_redistribution: bool = True
    enable_degree_aware_caching: bool = True
    enable_aggregation_load_balancing: bool = True
    enable_zero_skipping: bool = True

    name: str = "GNNIE"

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.num_rows <= 0 or self.num_cols <= 0:
            raise ValueError("array dimensions must be positive")
        if len(self.macs_per_group) != len(self.rows_per_group):
            raise ValueError("macs_per_group and rows_per_group must have equal length")
        if sum(self.rows_per_group) != self.num_rows:
            raise ValueError(
                f"rows_per_group {self.rows_per_group} must sum to num_rows={self.num_rows}"
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
        if self.link_bandwidth_bytes_per_s <= 0:
            raise ValueError("link_bandwidth_bytes_per_s must be positive")
        if self.link_latency_cycles < 0:
            raise ValueError("link_latency_cycles must be non-negative")
        unknown = set(self.miss_path_mechanisms) - set(MISS_PATH_MECHANISMS)
        if unknown:
            raise ValueError(
                f"unknown mechanisms {sorted(unknown)} in miss_path_mechanisms; "
                f"known: {', '.join(MISS_PATH_MECHANISMS)}"
            )
        mechanisms = self.miss_path_mechanisms
        duplicates = sorted({name for name in mechanisms if mechanisms.count(name) > 1})
        if duplicates:
            raise ValueError(f"duplicate mechanisms {duplicates} in miss_path_mechanisms")
        if self.victim_cache_entries <= 0 or self.miss_cache_entries <= 0:
            raise ValueError("victim/miss cache capacities must be positive")
        if self.stream_buffer_count <= 0 or self.stream_buffer_depth <= 0:
            raise ValueError("stream buffer count and depth must be positive")

    @property
    def macs_per_row(self) -> tuple[int, ...]:
        """MACs per CPE for each of the ``num_rows`` rows, top to bottom."""
        per_row: list[int] = []
        for macs, rows in zip(self.macs_per_group, self.rows_per_group):
            per_row.extend([macs] * rows)
        return tuple(per_row)

    @property
    def total_macs(self) -> int:
        """Total MAC units across the CPE array (paper: 1216 for GNNIE)."""
        return sum(macs * self.num_cols for macs in self.macs_per_row)

    @property
    def num_cpes(self) -> int:
        return self.num_rows * self.num_cols

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_bytes_per_s / self.frequency_hz

    @property
    def link_bytes_per_cycle(self) -> float:
        return self.link_bandwidth_bytes_per_s / self.frequency_hz

    @property
    def peak_ops_per_second(self) -> float:
        """Peak throughput counting one MAC as two operations (mult + add)."""
        return 2.0 * self.total_macs * self.frequency_hz

    def with_miss_path(self, *mechanisms: str, **sizing: int) -> "AcceleratorConfig":
        """Copy with the given miss-path mechanisms enabled.

        ``sizing`` forwards the hierarchy knobs (``victim_cache_entries``,
        ``miss_cache_entries``, ``stream_buffer_count``,
        ``stream_buffer_depth``).
        """
        return replace(self, miss_path_mechanisms=tuple(mechanisms), **sizing)

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


@dataclass(frozen=True, slots=True)
class WeightingKnobs:
    """What Weighting pricing reads: the array shape, the MAC allocation,
    the three balancing flags, the value width and the DRAM bytes per cycle."""

    num_rows: int
    num_cols: int
    macs_per_group: tuple[int, ...]
    rows_per_group: tuple[int, ...]
    macs_per_row: tuple[int, ...]
    enable_flexible_mac: bool
    enable_zero_skipping: bool
    enable_load_redistribution: bool
    bytes_per_value: int
    dram_bytes_per_cycle: float


@dataclass(frozen=True, slots=True)
class CacheKnobs:
    """What a cache-policy simulation reads.  The miss-path fields, the ones
    with defaults (no hierarchy), keep them under degree-aware caching: that
    walk never misses, so miss-path variants share one walk."""

    input_buffer_bytes_or_default: int
    bytes_per_value: int
    gamma: int
    enable_degree_aware_caching: bool
    miss_path_mechanisms: tuple[str, ...] = ()
    victim_cache_entries: int | None = None
    miss_cache_entries: int | None = None
    stream_buffer_count: int | None = None
    stream_buffer_depth: int | None = None


@dataclass(frozen=True, slots=True)
class AggregationKnobs:
    """What Aggregation pricing reads besides its cache simulation.  The
    cycle model reads the total MAC count, not how it is allocated."""

    num_rows: int
    num_cpes: int
    total_macs: int
    enable_aggregation_load_balancing: bool
    enable_degree_aware_caching: bool
    bytes_per_value: int
    output_buffer_bytes: int
    dram_bandwidth_bytes_per_s: float
    frequency_hz: float


_View = TypeVar("_View", WeightingKnobs, CacheKnobs, AggregationKnobs)


def pricing_view(kind: type[_View], config: AcceleratorConfig) -> _View:
    """The ``kind`` view of ``config``: each of its fields read off the
    config, except that a :class:`CacheKnobs` keeps its miss-path defaults
    under degree-aware caching."""
    miss_path = kind is not CacheKnobs or not config.enable_degree_aware_caching
    names = [field.name for field in fields(kind) if miss_path or field.default is MISSING]
    return kind(**{name: getattr(config, name) for name in names})


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
