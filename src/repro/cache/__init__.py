"""Graph-specific, degree-aware caching for Aggregation (paper, Section VI).

:func:`simulate_policy` runs any hit-path policy in :data:`POLICY_NAMES`
(GNNIE's degree-aware walk in :mod:`repro.cache.controller`, and the
LRU/MRU, static-partition and vertex-order baselines) and returns a
:class:`CacheSimulationResult`.  :mod:`repro.cache.miss_path` holds the
miss-path ablation over the id-order baselines, the policies that miss:
:func:`miss_trace` hands back one's misses and evictions as two arrays, the
victim cache, miss cache and stream buffers of :data:`MISS_PATH_MECHANISMS`
filter them, and :func:`miss_path_ablation_rows` builds the table.  GNNIE's
degree-aware walk streams every record, so it has no miss to filter.
"""

from repro.cache.controller import vertex_record_bytes
from repro.cache.miss_path import (
    MISS_PATH_MECHANISMS,
    miss_cache_hits,
    miss_path_ablation_rows,
    stream_hits,
    victim_hits,
)
from repro.cache.policies import (
    EVICT,
    ID_ORDER_POLICIES,
    MISS,
    POLICY_NAMES,
    miss_trace,
    simulate_policy,
)
from repro.cache.policy import CacheSimulationResult

__all__ = [
    "CacheSimulationResult",
    "ID_ORDER_POLICIES",
    "POLICY_NAMES",
    "simulate_policy",
    "vertex_record_bytes",
    # Miss-path ablation
    "miss_trace",
    "MISS",
    "EVICT",
    "MISS_PATH_MECHANISMS",
    "victim_hits",
    "miss_cache_hits",
    "stream_hits",
    "miss_path_ablation_rows",
]
