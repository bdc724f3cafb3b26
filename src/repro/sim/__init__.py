"""GNNIE performance and energy simulation."""

from repro.sim.aggregation_sim import (
    aggregation_phase_from_cache,
    input_buffer_capacity,
    run_cache_simulation,
)
from repro.sim.design_space import (
    DesignPoint,
    admissible_mac_allocation,
    pareto_front,
    sweep_buffer_sizes,
    sweep_designs,
    sweep_mac_allocations,
)
from repro.sim.engine import GNNIESimulator
from repro.sim.gnnie_executor import GNNIEExecutor
from repro.sim.trace import phase_table, result_to_dict, result_to_json, results_to_csv
from repro.sim.results import InferenceResult, LayerResult, PhaseResult, ScaleOutResult
from repro.sim.weighting_sim import simulate_weighting, weighting_phase_from_schedule

__all__ = [
    "GNNIESimulator",
    "GNNIEExecutor",
    "DesignPoint",
    "admissible_mac_allocation",
    "sweep_designs",
    "sweep_mac_allocations",
    "sweep_buffer_sizes",
    "pareto_front",
    "result_to_dict",
    "result_to_json",
    "results_to_csv",
    "phase_table",
    "InferenceResult",
    "LayerResult",
    "PhaseResult",
    "ScaleOutResult",
    "simulate_weighting",
    "weighting_phase_from_schedule",
    "run_cache_simulation",
    "input_buffer_capacity",
    "aggregation_phase_from_cache",
]
