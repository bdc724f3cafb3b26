"""Miss-path ablation: a victim cache, a miss cache and stream buffers
behind the input buffer, over the id-order policies' misses.

GNNIE removes random DRAM accesses by policy (Section VI).  This ablation
asks how much of the id-order baselines' random traffic classic hardware on
the miss path would recover instead, in the shape of the SimpleScalar DL1
miss-path studies: the hit path is left untouched and only the destination
of each miss (a structure or DRAM) is decided here.
:func:`~repro.cache.policies.miss_trace` replays an id-order policy and
hands back its chronological misses and evictions as two arrays, and each
filter returns a boolean hit mask over the misses:

* :func:`victim_hits`: a small fully associative buffer of recently
  *evicted* vertex records; a miss that finds its vertex there is served by
  a swap-back instead of DRAM;
* :func:`miss_cache_hits`: a tag-only store of recent miss addresses, which
  catches a vertex missed twice in quick succession;
* :func:`stream_hits`: buffers that prefetch the next records of the DRAM
  vertex stream after a miss.  The id-order policies lay records out in
  vertex-id order, so a vertex's id is its position in that stream.

The structures are probed in parallel on a miss, so a combination recovers
the union of its members' masks.  :func:`miss_path_ablation_rows` builds
the table.  GNNIE's degree-aware walk fetches every record sequentially, so
it has no miss to filter and no row.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.cache.policies import EVICT, MISS, miss_trace
from repro.graph.csr import CSRGraph

__all__ = [
    "MISS_PATH_MECHANISMS",
    "miss_cache_hits",
    "miss_path_ablation_rows",
    "stream_hits",
    "victim_hits",
]

#: Miss-path structures behind the input buffer, in the order the tables
#: list them.
MISS_PATH_MECHANISMS = ("victim", "miss", "stream")


def victim_hits(kinds: np.ndarray, vertices: np.ndarray, entries: int) -> np.ndarray:
    """Misses served by a fully associative LRU buffer of ``entries`` evictions.

    ``kinds`` and ``vertices`` are a walk's events (:data:`MISS` or
    :data:`EVICT`, and the vertex).  Evictions fill the buffer; a miss that
    finds its vertex there is a hit, and the record swaps back into the
    input buffer, leaving the victim cache.  Every event permutes the LRU
    state, so this is a Python loop; victim caches hold 8 to 64 entries.
    """
    hits = []
    store: OrderedDict[int, None] = OrderedDict()
    for kind, vertex in zip(kinds.tolist(), vertices.tolist()):
        if kind == EVICT:
            if vertex in store:
                store.move_to_end(vertex)
            else:
                if len(store) >= entries:
                    store.popitem(last=False)
                store[vertex] = None
        else:
            hits.append(vertex in store)
            store.pop(vertex, None)  # a hit swaps the record back
    return np.array(hits, dtype=bool)


def miss_cache_hits(misses: np.ndarray, entries: int) -> np.ndarray:
    """Misses caught by a tag-only LRU store of the last ``entries`` miss
    addresses.

    It holds no data: it only detects that a vertex missed again while its
    tag is resident, which resolves the repeat without a second random DRAM
    access.  It reads the misses alone, never the evictions.
    """
    hits = []
    tags: OrderedDict[int, None] = OrderedDict()
    for vertex in misses.tolist():
        hit = vertex in tags
        hits.append(hit)
        if hit:
            tags.move_to_end(vertex)
            continue
        if len(tags) >= entries:
            tags.popitem(last=False)
        tags[vertex] = None
    return np.array(hits, dtype=bool)


def stream_hits(misses: np.ndarray, count: int, depth: int) -> np.ndarray:
    """Misses served by ``count`` stream buffers prefetching ``depth`` records.

    Each buffer covers the ``depth`` stream positions after its anchor.  A
    miss at position ``q`` probes every window at once; a hit slides only
    that buffer's anchor to ``q``, and a miss allocates the
    least-recently-used buffer at ``q``.  So hits never displace another
    buffer, and ``count`` interleaved sequential streams stay covered
    however unbalanced they are.  A hit avoids the random DRAM access but
    is served by data the buffer prefetched from DRAM.
    """
    hits = np.zeros(len(misses), dtype=bool)
    # Window anchors; nothing is covered until a buffer is allocated.
    anchors = np.full(count, -(depth + 1), dtype=np.int64)
    last_use = np.zeros(count, dtype=np.int64)
    for index, position in enumerate(misses.tolist()):
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


def miss_path_ablation_rows(
    adjacency: CSRGraph,
    capacity: int,
    *,
    policies: Sequence[str] = ("vertex_order",),
    dataset: str | None = None,
    mechanisms: Sequence[str] = MISS_PATH_MECHANISMS,
    victim_entries: int = 64,
    miss_entries: int = 4096,
    stream_buffers: int = 4,
    stream_depth: int = 16,
) -> list[dict[str, object]]:
    """One table row per (id-order policy, mechanism), plus a combined row
    per policy when several mechanisms are named.

    The input buffer holds ``capacity`` vertex records
    (:func:`~repro.sim.aggregation_sim.input_buffer_capacity`).
    ``mechanisms`` names structures from :data:`MISS_PATH_MECHANISMS`, each
    at most once, in table order.  The victim cache holds ``victim_entries``
    evicted records, the miss cache ``miss_entries`` tags (tag-only, so it
    can outgrow the input buffer cheaply), and ``stream_buffers`` windows of
    ``stream_depth`` records.  An unknown or repeated name, or a size that
    is not positive, raises :class:`ValueError` before any walk runs.

    A mechanism's ``hits`` are the random DRAM accesses it avoids alone;
    the combined row's are the union, since a miss that several structures
    hold still costs no DRAM access.  ``sequential_fetches`` repeats on
    every row, so an ablation can assert the hit path was left untouched.
    """
    names = list(mechanisms)
    _validate_ablation(
        names,
        {
            "victim_entries": victim_entries,
            "miss_entries": miss_entries,
            "stream_buffers": stream_buffers,
            "stream_depth": stream_depth,
        },
    )
    rows: list[dict[str, object]] = []
    for policy in policies:
        result, kinds, vertices = miss_trace(policy, adjacency, capacity)
        misses = vertices[kinds == MISS]
        masks: dict[str, np.ndarray] = {}
        for name in names:
            if name == "victim":
                masks[name] = victim_hits(kinds, vertices, victim_entries)
            elif name == "miss":
                masks[name] = miss_cache_hits(misses, miss_entries)
            else:
                masks[name] = stream_hits(misses, stream_buffers, stream_depth)
        if len(names) > 1:
            masks["+".join(names)] = np.logical_or.reduce(list(masks.values()))
        accesses = int(misses.size)
        for mechanism, mask in masks.items():
            hits = int(mask.sum())
            row: dict[str, object] = {} if dataset is None else {"dataset": dataset}
            row.update(
                policy=policy,
                mechanism=mechanism,
                accesses=accesses,
                hits=hits,
                hit_rate_pct=round(100.0 * (hits / accesses), 2) if accesses else 0.0,
                dram_random_avoided=hits,
                dram_random_remaining=accesses - hits,
                sequential_fetches=result.vertex_fetches,
            )
            rows.append(row)
    return rows


def _validate_ablation(mechanisms: Sequence[str], sizes: Mapping[str, int]) -> None:
    """Raise :class:`ValueError` for an unknown or repeated mechanism name,
    or for a size in ``sizes`` (keyed by argument name) that is not
    positive.  :func:`miss_path_ablation_rows` passes all four sizes;
    ``repro cache`` passes the flags it was given, before it builds a graph.
    """
    names = list(mechanisms)
    unknown = set(names) - set(MISS_PATH_MECHANISMS)
    if unknown:
        raise ValueError(
            f"unknown mechanisms {sorted(unknown)}; known: {', '.join(MISS_PATH_MECHANISMS)}"
        )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate mechanisms {duplicates}")
    for name, size in sizes.items():
        if size <= 0:
            raise ValueError(f"{name} must be positive, got {size}")
