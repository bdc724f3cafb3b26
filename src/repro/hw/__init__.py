"""GNNIE's fixed design, its explored knobs, HBM timing and energy/area models.

Cycles come from the plan executors pricing the :mod:`repro.mapping`
schedules and the cache simulation; this package supplies the fixed numbers
they read (:data:`GNNIE_TABLE`), the knobs a design point varies
(:class:`AcceleratorConfig`), the DRAM transfer timing (:class:`HBMModel`)
and the per-event energy and chip-area figures.
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
from repro.hw.dram import HBMModel
from repro.hw.energy import AreaModel, EnergyBreakdown, EnergyModel

__all__ = [
    "AcceleratorConfig",
    "DESIGN_PRESETS",
    "FIT",
    "GNNIE_TABLE",
    "GNNIETable",
    "design_preset",
    "entry",
    "HBMModel",
    "EnergyModel",
    "EnergyBreakdown",
    "AreaModel",
]
