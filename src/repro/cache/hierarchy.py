"""Miss-path hierarchy behind the input buffer.

:func:`filter_misses` glues the mechanisms of :mod:`repro.cache.mechanisms`
into one filter: every input-buffer miss in a
:class:`~repro.cache.trace.VertexAccessTrace` probes the named structures in
parallel, any hit keeps the access on chip, and only the remaining misses
go to DRAM as random accesses.  The outcome is a :class:`HierarchyResult`
with per-mechanism statistics (accesses, hits, hit rate — the counters the
SimpleScalar miss-path studies report) plus the combined recovered count.
The mechanisms and their sizes are the function's arguments: the hierarchy
is an ablation over the id-order policies' misses, not part of the priced
design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cache.mechanisms import MechanismStats, miss_cache_hits, stream_hits, victim_hits
from repro.cache.trace import VertexAccessTrace

__all__ = ["MISS_PATH_MECHANISMS", "HierarchyResult", "check_miss_path", "filter_misses"]

#: Miss-path structures behind the input buffer: a victim cache of evicted
#: records, a tag-only miss cache and stream buffers, in the order the
#: tables list them.
MISS_PATH_MECHANISMS = ("victim", "miss", "stream")


@dataclass
class HierarchyResult:
    """What the miss-path hierarchy recovered from one trace."""

    mechanisms: list[MechanismStats] = field(default_factory=list)
    total_misses: int = 0
    resolved: int = 0

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


def check_miss_path(
    mechanisms: Sequence[str] = MISS_PATH_MECHANISMS,
    *,
    victim_entries: int = 64,
    miss_entries: int = 4096,
    stream_buffers: int = 4,
    stream_depth: int = 16,
) -> None:
    """Raise :class:`ValueError` for an unknown or repeated mechanism name or
    a non-positive size; :func:`filter_misses` documents the arguments."""
    names = list(mechanisms)
    unknown = set(names) - set(MISS_PATH_MECHANISMS)
    if unknown:
        raise ValueError(
            f"unknown mechanisms {sorted(unknown)}; known: {', '.join(MISS_PATH_MECHANISMS)}"
        )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate mechanisms {duplicates}")
    sizes = {
        "victim_entries": victim_entries,
        "miss_entries": miss_entries,
        "stream_buffers": stream_buffers,
        "stream_depth": stream_depth,
    }
    for name, size in sizes.items():
        if size <= 0:
            raise ValueError(f"{name} must be positive, got {size}")


def filter_misses(
    trace: VertexAccessTrace,
    mechanisms: Sequence[str] = MISS_PATH_MECHANISMS,
    *,
    victim_entries: int = 64,
    miss_entries: int = 4096,
    stream_buffers: int = 4,
    stream_depth: int = 16,
) -> HierarchyResult:
    """Run every miss of ``trace`` through a victim / miss / stream hierarchy.

    ``mechanisms`` names the structures from :data:`MISS_PATH_MECHANISMS`,
    each at most once; they run in the given order.  The structures hold
    ``victim_entries`` evicted records, ``miss_entries`` miss tags (a
    tag-only store, so it can exceed the input buffer's vertex capacity
    cheaply) and ``stream_buffers`` windows of ``stream_depth`` records.

    Per-mechanism stats count each structure's own hits (parallel probing,
    so the same miss may hit several structures); the combined ``resolved``
    count is the union — each such miss costs zero DRAM random accesses
    regardless of how many structures held it.
    """
    check_miss_path(
        mechanisms,
        victim_entries=victim_entries,
        miss_entries=miss_entries,
        stream_buffers=stream_buffers,
        stream_depth=stream_depth,
    )
    result = HierarchyResult(total_misses=trace.num_misses)
    resolved = np.zeros(trace.num_misses, dtype=bool)
    for name in mechanisms:
        if name == "victim":
            mask = victim_hits(trace, victim_entries)
        elif name == "miss":
            mask = miss_cache_hits(trace, miss_entries)
        else:  # "stream"; check_miss_path rejects any other name
            mask = stream_hits(trace, stream_buffers, stream_depth)
        resolved |= mask
        result.mechanisms.append(
            MechanismStats(name=name, accesses=int(mask.size), hits=int(mask.sum()))
        )
    result.resolved = int(resolved.sum())
    return result
