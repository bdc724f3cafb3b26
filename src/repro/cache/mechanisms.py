"""Classic miss-path cache mechanisms, evaluated over a vertex access trace.

Three structures from the hardware-caching literature are modeled behind the
input buffer (the shape of the SimpleScalar DL1 miss-path studies: baseline
hit path untouched, miss path augmented with stats-only structures):

* :func:`victim_hits` — a small fully associative buffer holding recently
  *evicted* vertex records.  Probed on a miss; a hit swaps the record back
  into the input buffer, so DRAM is not accessed.
* :func:`miss_cache_hits` — a tag-only structure remembering recent miss
  addresses; it captures short-term miss reuse (a vertex missed twice in
  quick succession is served the second time without DRAM).
* :func:`stream_hits` — ``count`` buffers that prefetch the next ``depth``
  vertex records of the sequential DRAM vertex stream after each miss.
  The id-order policies lay records out in vertex-id order, so a hit is a
  vectorized membership test of the missed vertex's id against all active
  prefetch windows at once.

Each function reads a :class:`~repro.cache.trace.VertexAccessTrace` and
returns a boolean hit mask over the trace's misses, without mutating the
trace: the base simulation's behavior is fixed, only the destination of
each miss (structure vs. DRAM) is decided here.  Mechanisms are probed in
parallel on a miss (the classic arrangement), so combined configurations
(VC+SB, MC+SB, …) compose by taking the union of the masks —
:func:`repro.cache.hierarchy.filter_misses` is the one place that union is
computed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cache.trace import EVICT, VertexAccessTrace

__all__ = ["MechanismStats", "victim_hits", "miss_cache_hits", "stream_hits"]


@dataclass(frozen=True)
class MechanismStats:
    """Per-mechanism counters (the snippet-1 statistics triple)."""

    name: str
    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_row(self) -> dict[str, object]:
        """Row for :func:`repro.analysis.format_table`."""
        return {
            "mechanism": self.name,
            "accesses": self.accesses,
            "hits": self.hits,
            "hit_rate_pct": round(100.0 * self.hit_rate, 2),
            "dram_random_avoided": self.hits,
        }


def victim_hits(trace: VertexAccessTrace, entries: int) -> np.ndarray:
    """Misses served by a fully associative LRU buffer of ``entries`` evictions.

    Evictions fill it; a miss that finds its vertex here is served by a
    swap-back instead of DRAM (the swapped-back record leaves the victim
    cache).  The walk is inherently sequential — every event permutes the
    LRU state — so this filter is an intentional Python loop; victim caches
    are small (8–64 entries) and traces are a few tens of thousands of
    events, so it stays cheap.
    """
    hits = np.zeros(trace.num_misses, dtype=bool)
    store: OrderedDict[int, None] = OrderedDict()
    miss_index = 0
    for kind, vertex in zip(trace.kinds, trace.vertices):
        vertex = int(vertex)
        if kind == EVICT:
            if vertex in store:
                store.move_to_end(vertex)
            else:
                if len(store) >= entries:
                    store.popitem(last=False)
                store[vertex] = None
        else:  # MISS
            if vertex in store:
                hits[miss_index] = True
                del store[vertex]  # swapped back into the input buffer
            miss_index += 1
    return hits


def miss_cache_hits(trace: VertexAccessTrace, entries: int) -> np.ndarray:
    """Misses caught by a tag-only LRU cache of the last ``entries`` miss addresses.

    Unlike the victim cache it stores no data — it only detects that the
    same vertex missed again while its tag is still resident, resolving the
    repeat without a second DRAM random access.  Eviction events are
    ignored.  Sequential by construction (LRU state), same cost argument as
    :func:`victim_hits`.
    """
    misses = trace.miss_vertices()
    hits = np.zeros(misses.size, dtype=bool)
    tags: OrderedDict[int, None] = OrderedDict()
    for index, vertex in enumerate(misses):
        vertex = int(vertex)
        if vertex in tags:
            hits[index] = True
            tags.move_to_end(vertex)
            continue
        if len(tags) >= entries:
            tags.popitem(last=False)
        tags[vertex] = None
    return hits


def stream_hits(trace: VertexAccessTrace, count: int, depth: int) -> np.ndarray:
    """Misses served by ``count`` stream buffers prefetching ``depth`` records.

    Classic allocate/slide semantics: each buffer holds a prefetch window
    covering the next ``depth`` positions of the DRAM vertex stream after
    its anchor.  The stream is laid out in vertex-id order, so a vertex's
    id is its position.  An input-buffer miss at position ``q`` probes
    all windows at once (the vectorized membership test); a hit slides that
    buffer's anchor forward to ``q`` (the buffer keeps prefetching down its
    stream), a miss allocates the least-recently-used buffer at ``q``.
    Hits never displace other buffers, so ``count`` interleaved sequential
    streams stay covered regardless of how unbalanced their activity is.

    A stream-buffer hit avoids the random DRAM access but is served by data
    the buffer prefetched *from DRAM*.
    """
    positions = trace.miss_vertices()
    hits = np.zeros(positions.size, dtype=bool)
    # Window anchors; nothing is covered until a buffer is allocated.
    anchors = np.full(count, -(depth + 1), dtype=np.int64)
    last_use = np.zeros(count, dtype=np.int64)
    for index, position in enumerate(positions):
        delta = position - anchors
        in_window = (delta > 0) & (delta <= depth)
        if in_window.any():
            buffer_id = int(np.argmax(in_window))
            hits[index] = True
        else:
            buffer_id = int(np.argmin(last_use))
        anchors[buffer_id] = position
        last_use[buffer_id] = index + 1
    return hits
