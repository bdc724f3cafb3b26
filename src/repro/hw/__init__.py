"""GNNIE's fixed design, its explored knobs, HBM timing and energy/area.

Cycles come from the plan executors pricing the :mod:`repro.mapping`
schedules and the cache simulation; this package supplies the default
chip's fixed numbers (:data:`GNNIE_TABLE`), the knobs a design point varies
(:class:`AcceleratorConfig`), and the DRAM transfer timing
(:mod:`repro.hw.dram`) and per-event energy and chip-area figures
(:mod:`repro.hw.energy`) as functions of the table they price on.
"""

from repro.hw.config import (
    DESIGN_PRESETS,
    FIT,
    GNNIE_TABLE,
    AcceleratorConfig,
    GNNIETable,
    design_preset,
    entry,
)
from repro.hw.energy import EnergyBreakdown

__all__ = [
    "AcceleratorConfig",
    "DESIGN_PRESETS",
    "FIT",
    "GNNIE_TABLE",
    "GNNIETable",
    "design_preset",
    "entry",
    "EnergyBreakdown",
]
