"""Graph-specific, degree-aware caching for Aggregation (paper, Section VI).

:func:`simulate_policy` runs any hit-path policy in :data:`POLICY_NAMES`
(the degree-aware controller, LRU/MRU, static partition and the
vertex-order baseline).  The package also contains a trace-driven
**miss-path hierarchy**: the policy simulators can emit a
miss/eviction trace (:mod:`repro.cache.trace`), which a configurable set of
classic hardware structures — victim cache, miss cache, stream buffers
(:mod:`repro.cache.mechanisms`) — filters before DRAM
(:mod:`repro.cache.hierarchy`).  Mechanisms are pluggable through
:data:`MECHANISM_REGISTRY` / :func:`register_mechanism`.
"""

from repro.cache.controller import DegreeAwareCacheController, vertex_record_bytes
from repro.cache.hierarchy import HierarchyResult, MissPathConfig, MissPathHierarchy
from repro.cache.mechanisms import (
    MECHANISM_REGISTRY,
    MechanismStats,
    MissCache,
    MissPathMechanism,
    StreamBufferArray,
    VictimCache,
    build_mechanism,
    mechanism_names,
    register_mechanism,
)
from repro.cache.policies import POLICY_NAMES, simulate_policy
from repro.cache.policy import CachePolicyConfig, CacheSimulationResult
from repro.cache.trace import EVICT, MISS, TraceRecorder, VertexAccessTrace

__all__ = [
    "CachePolicyConfig",
    "CacheSimulationResult",
    "DegreeAwareCacheController",
    "POLICY_NAMES",
    "simulate_policy",
    "vertex_record_bytes",
    # Miss-path trace
    "MISS",
    "EVICT",
    "TraceRecorder",
    "VertexAccessTrace",
    # Miss-path mechanisms + registry
    "MechanismStats",
    "MissPathMechanism",
    "VictimCache",
    "MissCache",
    "StreamBufferArray",
    "MECHANISM_REGISTRY",
    "register_mechanism",
    "mechanism_names",
    "build_mechanism",
    # Hierarchy
    "MissPathConfig",
    "HierarchyResult",
    "MissPathHierarchy",
]
