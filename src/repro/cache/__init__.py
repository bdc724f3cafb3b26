"""Graph-specific, degree-aware caching for Aggregation (paper, Section VI).

:func:`simulate_policy` runs any hit-path policy in :data:`POLICY_NAMES`
(GNNIE's degree-aware walk in :mod:`repro.cache.controller`, and the
LRU/MRU, static-partition and vertex-order baselines) and returns a
:class:`CacheSimulationResult`.  The package also contains a trace-driven
**miss-path hierarchy**: the policy simulators can emit a
miss/eviction trace (:mod:`repro.cache.trace`), which the classic hardware
structures that ``AcceleratorConfig.miss_path_mechanisms`` enables — victim
cache, miss cache, stream buffers (:mod:`repro.cache.mechanisms`) — filter
before DRAM (:func:`filter_misses`).
"""

from repro.cache.controller import vertex_record_bytes
from repro.cache.hierarchy import HierarchyResult, filter_misses
from repro.cache.mechanisms import MechanismStats, miss_cache_hits, stream_hits, victim_hits
from repro.cache.policies import POLICY_NAMES, simulate_policy
from repro.cache.policy import CacheSimulationResult
from repro.cache.trace import EVICT, MISS, TraceRecorder, VertexAccessTrace

__all__ = [
    "CacheSimulationResult",
    "POLICY_NAMES",
    "simulate_policy",
    "vertex_record_bytes",
    # Miss-path trace
    "MISS",
    "EVICT",
    "TraceRecorder",
    "VertexAccessTrace",
    # Miss-path mechanisms
    "MechanismStats",
    "victim_hits",
    "miss_cache_hits",
    "stream_hits",
    # Hierarchy
    "HierarchyResult",
    "filter_misses",
]
