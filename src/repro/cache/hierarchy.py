"""Miss-path hierarchy behind the input buffer.

:func:`filter_misses` glues the mechanisms of :mod:`repro.cache.mechanisms`
into one filter: every input-buffer miss in a
:class:`~repro.cache.trace.VertexAccessTrace` probes the structures that
``AcceleratorConfig.miss_path_mechanisms`` enables, in parallel, any hit
keeps the access on chip, and only the remaining misses go to DRAM as
random accesses.  The outcome is a :class:`HierarchyResult` with
per-mechanism statistics (accesses, hits, hit rate — the counters the
SimpleScalar miss-path studies report) plus the combined recovered-traffic
totals the DRAM and cycle models consume.  The structures are sized by the
same :class:`~repro.hw.config.AcceleratorConfig` (``victim_cache_entries``,
``miss_cache_entries``, ``stream_buffer_count``, ``stream_buffer_depth``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.mechanisms import MechanismStats, miss_cache_hits, stream_hits, victim_hits
from repro.cache.trace import VertexAccessTrace
from repro.hw.config import AcceleratorConfig, CacheKnobs

__all__ = ["HierarchyResult", "filter_misses"]


@dataclass
class HierarchyResult:
    """What the miss-path hierarchy recovered from one trace."""

    mechanisms: list[MechanismStats] = field(default_factory=list)
    total_misses: int = 0
    resolved: int = 0
    #: Subset of ``resolved`` served only by DRAM-filling structures (stream
    #: buffers): the random access is avoided, but the record's bytes were
    #: still fetched from DRAM — as sequential prefetch traffic.
    prefetch_resolved: int = 0
    #: Total records the DRAM-filling structures streamed in, consumed or
    #: not (stream-buffer allocations fetch ``depth`` records each).  This
    #: is reported, not charged: the cycle model charges only the consumed
    #: prefetches (``sequential_prefetch_bytes``), i.e. it assumes an ideal
    #: bypass that cancels unconsumed fills — compare this number against
    #: ``prefetch_resolved`` to see how optimistic that is per workload.
    prefetch_fill_records: int = 0
    bytes_per_vertex: int = 256
    policy: str = "unknown"

    @property
    def dram_random_accesses(self) -> int:
        """Misses that still reach DRAM after the hierarchy."""
        return self.total_misses - self.resolved

    @property
    def random_accesses_avoided(self) -> int:
        return self.resolved

    @property
    def random_bytes_avoided(self) -> int:
        return self.resolved * self.bytes_per_vertex

    @property
    def sequential_prefetch_bytes(self) -> int:
        """Bytes the stream buffers streamed from DRAM to serve their hits."""
        return self.prefetch_resolved * self.bytes_per_vertex

    @property
    def hit_rate(self) -> float:
        return self.resolved / self.total_misses if self.total_misses else 0.0

    def rows(self) -> list[dict[str, object]]:
        """Per-mechanism table rows plus the combined hierarchy row."""
        rows = [stats.as_row() for stats in self.mechanisms]
        if len(self.mechanisms) > 1:
            rows.append(
                {
                    "mechanism": "+".join(stats.name for stats in self.mechanisms),
                    "accesses": self.total_misses,
                    "hits": self.resolved,
                    "hit_rate_pct": round(100.0 * self.hit_rate, 2),
                    "dram_random_avoided": self.resolved,
                }
            )
        return rows


def filter_misses(
    trace: VertexAccessTrace, config: AcceleratorConfig | CacheKnobs, *, metrics=None
) -> HierarchyResult:
    """Run every miss of ``trace`` through the configured miss-path hierarchy.

    The mechanisms run in ``config.miss_path_mechanisms`` order.
    Per-mechanism stats count each structure's own hits (parallel probing,
    so the same miss may hit several structures); the combined ``resolved``
    count is the union — each such miss costs zero DRAM random accesses
    regardless of how many structures held it.

    Stream buffers are the one structure that fills from DRAM: their fill
    traffic is ``depth`` records per allocation (every miss that hits no
    window allocates a buffer) plus one per hit (the window slides one
    record forward).  On a low-locality trace most of the allocated records
    go unused, which is the real bandwidth cost of stream buffers that hit
    counts alone hide.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`; when
    given (and enabled), the trace's input-buffer misses/evictions and
    every mechanism's probe/hit counters are recorded under
    ``cache.input_buffer.*`` / ``cache.miss_path.*``.
    """
    result = HierarchyResult(
        total_misses=trace.num_misses,
        bytes_per_vertex=trace.bytes_per_vertex,
        policy=trace.policy,
    )
    resolved = np.zeros(trace.num_misses, dtype=bool)
    on_chip = np.zeros(trace.num_misses, dtype=bool)
    for name in config.miss_path_mechanisms:
        if name == "victim":
            mask = victim_hits(trace, config.victim_cache_entries)
        elif name == "miss":
            mask = miss_cache_hits(trace, config.miss_cache_entries)
        else:  # "stream"; the config rejects any other name
            mask = stream_hits(
                trace, config.stream_buffer_count, config.stream_buffer_depth
            )
        hits = int(mask.sum())
        resolved |= mask
        if name == "stream":
            result.prefetch_fill_records += (
                (mask.size - hits) * config.stream_buffer_depth + hits
            )
        else:
            # A parallel hit in an on-chip structure serves the data
            # without DRAM, even if a stream buffer also held it.
            on_chip |= mask
        result.mechanisms.append(
            MechanismStats(name=name, accesses=int(mask.size), hits=hits)
        )
    result.resolved = int(resolved.sum())
    result.prefetch_resolved = int((resolved & ~on_chip).sum())
    if metrics is not None and metrics.enabled:
        metrics.counter("cache.input_buffer.misses", policy=trace.policy).inc(
            trace.num_misses
        )
        metrics.counter("cache.input_buffer.evictions", policy=trace.policy).inc(
            trace.num_evictions
        )
        for stats in result.mechanisms:
            metrics.counter("cache.miss_path.accesses", mechanism=stats.name).inc(
                stats.accesses
            )
            metrics.counter("cache.miss_path.hits", mechanism=stats.name).inc(
                stats.hits
            )
        metrics.counter("cache.miss_path.resolved").inc(result.resolved)
        metrics.counter("cache.miss_path.dram_random").inc(
            result.dram_random_accesses
        )
    return result
