"""Mapping of GNN computations onto the GNNIE PE array."""

from repro.mapping.aggregation import AggregationCycleModel, IterationCost
from repro.mapping.attention import (
    AttentionSchedule,
    attention_terms_functional,
    naive_attention_operations,
    schedule_attention,
)
from repro.mapping.binning import (
    BlockAssignment,
    BlockProfile,
    baseline_assignment,
    flexible_mac_assignment,
)
from repro.mapping.load_redistribution import LoadRedistributionResult, redistribute_load
from repro.mapping.weighting import WeightingSchedule, schedule_weighting, weighting_functional

__all__ = [
    "BlockAssignment",
    "BlockProfile",
    "baseline_assignment",
    "flexible_mac_assignment",
    "LoadRedistributionResult",
    "redistribute_load",
    "WeightingSchedule",
    "schedule_weighting",
    "weighting_functional",
    "AttentionSchedule",
    "schedule_attention",
    "attention_terms_functional",
    "naive_attention_operations",
    "AggregationCycleModel",
    "IterationCost",
]
