"""Accelerator configuration, HBM timing and the energy/area models of GNNIE.

Cycles come from the plan executors pricing the :mod:`repro.mapping`
schedules and the cache simulation; this package supplies the knobs they
read (:class:`AcceleratorConfig`), the DRAM transfer timing
(:class:`HBMModel`) and the per-event energy and chip-area figures.
"""

from repro.hw.config import (
    DESIGN_PRESETS,
    MISS_PATH_MECHANISMS,
    SFU_COLUMNS,
    AcceleratorConfig,
    design_preset,
)
from repro.hw.dram import HBMModel
from repro.hw.energy import AreaModel, EnergyBreakdown, EnergyModel

__all__ = [
    "AcceleratorConfig",
    "DESIGN_PRESETS",
    "MISS_PATH_MECHANISMS",
    "SFU_COLUMNS",
    "design_preset",
    "HBMModel",
    "EnergyModel",
    "EnergyBreakdown",
    "AreaModel",
]
