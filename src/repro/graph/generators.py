"""Synthetic graph topology generators.

The benchmark datasets of the paper (Table II) are real-world graphs with
power-law vertex degree distributions: most vertices have very low degree and
a handful have extremely high degree (e.g. in Reddit, 11% of vertices cover
88% of all edges).  GNNIE's caching policy and Aggregation load balancing are
designed around exactly this skew, so the synthetic substitutes must
reproduce it.

Three topology families are provided:

* :func:`power_law_graph` — a Chung–Lu style expected-degree model that hits
  a target edge count with a configurable power-law exponent.  Used for the
  citation networks and for scaled Reddit.
* :func:`community_graph` — a stochastic block model with power-law degrees
  inside communities, used for PPI-like graphs (dense biological modules).
* :func:`erdos_renyi_graph` — a uniform random graph used as a control in
  tests (no power-law skew, so degree-aware caching should give little gain).

All generators are deterministic given ``seed``.

Each generator samples its undirected pairs as two endpoint columns, appends
the repair pairs that give every isolated vertex one random neighbour
(:func:`_with_repair_pairs`), and sorts the result once into a symmetric CSR
(``CSRGraph._from_endpoints``).  After deduplication, a vertex is isolated
exactly when no sampled pair other than a self-loop names it, so the repair
is decided on the columns and needs no CSR of its own.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique

__all__ = [
    "power_law_graph",
    "community_graph",
    "erdos_renyi_graph",
    "power_law_degree_sequence",
]

#: Doubles read per step of :func:`_weighted_choice`: its temporaries stay a
#: few arrays of this length however many neighbours are drawn.
_DRAW_CHUNK = 1 << 16

#: Guide-table buckets per category in :func:`_weighted_choice`.
_BUCKETS_PER_CATEGORY = 4


def power_law_degree_sequence(
    num_vertices: int,
    target_average_degree: float,
    exponent: float,
    *,
    min_degree: int = 1,
    max_degree: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Draw an integer degree sequence from a truncated power law.

    The sequence is rescaled so that its mean matches
    ``target_average_degree`` as closely as integer rounding permits.

    Args:
        num_vertices: Length of the sequence.
        target_average_degree: Desired mean degree.
        exponent: Power-law exponent (typically 2.0–3.0 for real graphs;
            smaller means heavier tail).
        min_degree: Smallest allowed degree.
        max_degree: Largest allowed degree (defaults to ``num_vertices - 1``).
        seed: RNG seed.
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if target_average_degree <= 0:
        raise ValueError("target_average_degree must be positive")
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1 for a normalizable power law")
    rng = np.random.default_rng(seed)
    if max_degree is None:
        max_degree = max(min_degree + 1, num_vertices - 1)
    # Inverse-CDF sampling of a Pareto-like distribution truncated to
    # [min_degree, max_degree].
    uniform = rng.random(num_vertices)
    low = float(min_degree)
    high = float(max_degree)
    power = 1.0 - exponent
    raw = (low**power + uniform * (high**power - low**power)) ** (1.0 / power)
    # Rescale to the target mean, then clip back into range.
    raw *= target_average_degree / raw.mean()
    degrees = np.clip(np.round(raw), min_degree, max_degree).astype(np.int64)
    return degrees


def power_law_graph(
    num_vertices: int,
    target_num_edges: int,
    *,
    exponent: float = 2.3,
    max_degree: int | None = None,
    seed: int = 0,
) -> CSRGraph:
    """Chung–Lu expected-degree power-law graph.

    Each undirected edge ``(u, v)`` is included with probability proportional
    to ``w_u * w_v`` where ``w`` is a power-law weight sequence, and the
    weights are scaled so the expected number of undirected edges is
    ``target_num_edges``.  Every vertex draws a Poisson number of neighbours,
    and all neighbours come from one weighted draw,
    :func:`_weighted_choice`, which returns exactly the ids of
    ``Generator.choice(num_vertices, size, p=w / w.sum())`` without its
    binary search over every draw.

    Returns:
        A symmetric :class:`CSRGraph` (each undirected edge stored twice).
    """
    src, dst = _power_law_pairs(
        num_vertices, target_num_edges, exponent=exponent, max_degree=max_degree, seed=seed
    )
    return CSRGraph._from_endpoints(src, dst, num_vertices)


def community_graph(
    num_vertices: int,
    num_communities: int,
    *,
    intra_average_degree: float = 20.0,
    inter_edge_fraction: float = 0.05,
    exponent: float = 2.1,
    seed: int = 0,
) -> CSRGraph:
    """Stochastic-block-model-like graph with power-law intra-community degrees.

    Approximates protein-protein interaction networks (PPI): dense modules
    with comparatively few cross-module edges.  Each community holds a
    :func:`power_law_graph` over its members; it contributes that graph's
    undirected pairs, once each, and no CSR of its own.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be at least 2")
    if num_communities <= 0:
        raise ValueError("num_communities must be positive")
    if intra_average_degree < 0:
        raise ValueError("intra_average_degree must be non-negative")
    if not 0.0 <= inter_edge_fraction < 1.0:
        raise ValueError("inter_edge_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    community_of = rng.integers(num_communities, size=num_vertices)
    src_blocks = [np.empty(0, dtype=np.int64)]
    dst_blocks = [np.empty(0, dtype=np.int64)]
    for community in range(num_communities):
        members = np.flatnonzero(community_of == community)
        if members.size < 2:
            continue
        intra_edges = int(members.size * intra_average_degree / 2)
        src, dst = _power_law_pairs(
            members.size,
            max(intra_edges, 1),
            exponent=exponent,
            max_degree=None,
            seed=seed + 17 * (community + 1),
        )
        # The community's undirected pairs once each, as lo * n + hi.
        pairs = sorted_unique(np.minimum(src, dst) * members.size + np.maximum(src, dst))
        src_blocks.append(members[pairs // members.size])
        dst_blocks.append(members[pairs % members.size])
    intra_total = sum(block.size for block in src_blocks)
    inter_total = int(intra_total * inter_edge_fraction)
    if inter_total > 0:
        src = rng.integers(num_vertices, size=inter_total)
        dst = rng.integers(num_vertices, size=inter_total)
        keep = src != dst
        src_blocks.append(src[keep])
        dst_blocks.append(dst[keep])
    src, dst = _with_repair_pairs(
        np.concatenate(src_blocks), np.concatenate(dst_blocks), num_vertices, rng
    )
    return CSRGraph._from_endpoints(src, dst, num_vertices)


def erdos_renyi_graph(
    num_vertices: int,
    target_num_edges: int,
    *,
    seed: int = 0,
) -> CSRGraph:
    """Uniform random graph with approximately ``target_num_edges`` edges."""
    if num_vertices < 2:
        raise ValueError("num_vertices must be at least 2")
    if target_num_edges < 0:
        raise ValueError("target_num_edges must be non-negative")
    rng = np.random.default_rng(seed)
    src = rng.integers(num_vertices, size=target_num_edges)
    dst = rng.integers(num_vertices, size=target_num_edges)
    keep = src != dst
    src, dst = _with_repair_pairs(src[keep], dst[keep], num_vertices, rng)
    return CSRGraph._from_endpoints(src, dst, num_vertices)


def _power_law_pairs(
    num_vertices: int,
    target_num_edges: int,
    *,
    exponent: float,
    max_degree: int | None,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint columns of :func:`power_law_graph`: its sampled pairs other
    than self-loops, then its repair pairs, before deduplication."""
    if num_vertices < 2:
        raise ValueError("num_vertices must be at least 2")
    if target_num_edges <= 0:
        raise ValueError("target_num_edges must be positive")
    rng = np.random.default_rng(seed)
    average_degree = 2.0 * target_num_edges / num_vertices
    weights = power_law_degree_sequence(
        num_vertices,
        target_average_degree=max(average_degree, 1.0),
        exponent=exponent,
        max_degree=max_degree,
        seed=seed,
    ).astype(np.float64)
    total_weight = weights.sum()

    # Expected-degree (Chung-Lu) sampling: for every vertex u draw its
    # neighbor count from a Poisson with mean w_u, then choose neighbors with
    # probability proportional to w_v.  This is O(E) and captures the hub
    # structure that matters for GNNIE's cache policy.
    probabilities = weights / total_weight
    expected_out = weights * target_num_edges / total_weight
    out_counts = rng.poisson(expected_out)
    total_samples = int(out_counts.sum())
    if total_samples == 0:
        out_counts[rng.integers(num_vertices)] = 1
        total_samples = 1
    sources = np.repeat(np.arange(num_vertices), out_counts)
    destinations = _weighted_choice(rng, probabilities, total_samples)
    keep = sources != destinations
    return _with_repair_pairs(sources[keep], destinations[keep], num_vertices, rng)


def _with_repair_pairs(
    src: np.ndarray, dst: np.ndarray, num_vertices: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Append a pair joining every isolated vertex to one random partner.

    Real benchmark graphs have no isolated vertices; more importantly the
    Aggregation kernels and the cache controller assume every vertex has at
    least one edge to process.  ``src`` and ``dst`` hold no self-loop, so a
    vertex is isolated in their deduplicated, symmetric CSR exactly when
    neither column names it.
    """
    touched = np.zeros(num_vertices, dtype=bool)
    touched[src] = True
    touched[dst] = True
    isolated = np.flatnonzero(~touched)
    if isolated.size == 0:
        return src, dst
    partners = rng.integers(num_vertices, size=isolated.size)
    # Avoid accidental self-loops for the repair edges (num_vertices >= 2).
    partners = np.where(partners == isolated, (partners + 1) % num_vertices, partners)
    return np.concatenate([src, isolated]), np.concatenate([dst, partners])


def _weighted_choice(
    rng: np.random.Generator, probabilities: np.ndarray, size: int
) -> np.ndarray:
    """``rng.choice(probabilities.size, size=size, p=probabilities)``, exactly.

    With replacement, numpy's ``Generator.choice`` computes ``cdf =
    p.cumsum(); cdf /= cdf[-1]`` and returns ``cdf.searchsorted(
    rng.random(size), side="right")``.  This reads the same doubles with
    ``rng.random``, :data:`_DRAW_CHUNK` at a time, and answers each search
    through a guide table (:func:`_search_right`), where most lookups are
    one gather and one comparison rather than a binary search.  So it
    returns the same ids and leaves ``rng`` in the same state.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    edges, first = _bucket_table(cdf)
    draws = np.empty(size, dtype=np.int64)
    for start in range(0, size, _DRAW_CHUNK):
        uniform = rng.random(min(_DRAW_CHUNK, size - start))
        draws[start : start + uniform.size] = _search_right(cdf, uniform, edges, first)
    return draws


def _bucket_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guide table of :func:`_search_right` for a CDF ending at 1.0.

    Returns the left edges ``b / K`` of ``K = 4 * len(cdf)`` equal buckets
    over [0, 1) and, per bucket, the first index whose CDF value exceeds
    the bucket's edge.
    """
    num_buckets = _BUCKETS_PER_CATEGORY * cdf.size
    edges = np.arange(num_buckets) / num_buckets
    return edges, cdf.searchsorted(edges, side="right")


def _search_right(
    cdf: np.ndarray, uniform: np.ndarray, edges: np.ndarray, first: np.ndarray
) -> np.ndarray:
    """``cdf.searchsorted(uniform, side="right")`` for doubles in [0, 1).

    A double ``u`` starts at the first index of its bucket ``floor(u * K)``.
    That bucket exists: for ``u <= 1 - 2**-53`` and an integer ``K`` below
    ``2**53``, the product ``u * K`` rounds to less than ``K``.  The start
    is not past the answer when ``u`` lies at or above the bucket's edge.
    Where the rounding of ``u * K`` overshoots into the next bucket instead,
    a binary search answers.  Every start then steps up while
    ``cdf[index] <= u``, which ends because ``cdf[-1]`` is 1.0.
    """
    buckets = (uniform * edges.size).astype(np.int64)
    index = first[buckets]
    over = np.flatnonzero(uniform < edges[buckets])
    index[over] = cdf.searchsorted(uniform[over], side="right")
    behind = np.flatnonzero(cdf[index] <= uniform)
    while behind.size:
        index[behind] += 1
        behind = behind[cdf[index[behind]] <= uniform[behind]]
    return index
