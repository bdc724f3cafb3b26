"""Graph-specific, degree-aware caching for Aggregation (paper, Section VI).

:func:`simulate_policy` runs any hit-path policy in :data:`POLICY_NAMES`
(GNNIE's degree-aware walk in :mod:`repro.cache.controller`, and the
LRU/MRU, static-partition and vertex-order baselines) and returns a
:class:`CacheSimulationResult`.  The package also contains a trace-driven
**miss-path hierarchy**, an ablation over the id-order baselines, the
policies that miss: :func:`miss_trace` records one's miss/eviction
sequence (:mod:`repro.cache.trace`), and :func:`filter_misses` filters it
through the classic hardware structures in :data:`MISS_PATH_MECHANISMS` —
victim cache, miss cache, stream buffers (:mod:`repro.cache.mechanisms`) —
sized by its arguments.  GNNIE's degree-aware walk streams every record,
so it has no miss to filter.
"""

from repro.cache.controller import vertex_record_bytes
from repro.cache.hierarchy import (
    MISS_PATH_MECHANISMS,
    HierarchyResult,
    check_miss_path,
    filter_misses,
)
from repro.cache.mechanisms import MechanismStats, miss_cache_hits, stream_hits, victim_hits
from repro.cache.policies import ID_ORDER_POLICIES, POLICY_NAMES, miss_trace, simulate_policy
from repro.cache.policy import CacheSimulationResult
from repro.cache.trace import EVICT, MISS, TraceRecorder, VertexAccessTrace

__all__ = [
    "CacheSimulationResult",
    "ID_ORDER_POLICIES",
    "POLICY_NAMES",
    "simulate_policy",
    "vertex_record_bytes",
    # Miss-path trace
    "miss_trace",
    "MISS",
    "EVICT",
    "TraceRecorder",
    "VertexAccessTrace",
    # Miss-path mechanisms
    "MISS_PATH_MECHANISMS",
    "MechanismStats",
    "victim_hits",
    "miss_cache_hits",
    "stream_hits",
    # Hierarchy
    "HierarchyResult",
    "check_miss_path",
    "filter_misses",
]
