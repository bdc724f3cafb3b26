"""Synthetic stand-ins for the benchmark datasets of Table II.

The original evaluation uses the PyTorch Geometric copies of Cora, Citeseer,
Pubmed, PPI and Reddit.  Those are unavailable in this offline environment,
so :func:`build_dataset` constructs deterministic synthetic graphs that match
each dataset's published statistics — vertex count, edge count, feature
length, label count, feature sparsity, and a power-law degree distribution —
which are the only properties GNNIE's mechanisms are sensitive to.

Topology and features are built up front; labels, which only the Fig. 1
accuracy study reads, are built from the same seed on their first read
(:attr:`repro.graph.graph.Graph.labels`).

Features come from :func:`repro.sparse.generate_sparse_features`.  Its
sampler decides rows in vectorized blocks, yet its matrix equals, byte for
byte, the per-row ``rng.choice`` + ``rng.uniform`` loop on the same seed:
both calls only read the generator's stream of doubles, so each row is fixed
by its offset in that stream, and the sampler reads the same doubles at the
same offsets.

The two large graphs (PPI, Reddit) default to scaled-down versions (see
``DatasetSpec.default_scale``); pass ``scale=1.0`` to build them full size.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.datasets.registry import DatasetSpec, dataset_spec
from repro.graph.csr import CSRGraph
from repro.graph.generators import community_graph, power_law_graph
from repro.graph.graph import Graph
from repro.sparse.feature_matrix import generate_sparse_features

__all__ = ["build_dataset", "tiny_dataset"]

#: Edges per gather in the multilabel builder: bounds its transient arrays
#: to a few |chunk| x 32 float64 blocks instead of four |E| x 32 ones.
_LABEL_EDGE_CHUNK = 1 << 17


def _build_topology(spec: DatasetSpec, num_vertices: int, num_edges: int, seed: int) -> CSRGraph:
    if spec.topology == "community":
        communities = max(2, num_vertices // 2500)
        return community_graph(
            num_vertices,
            communities,
            intra_average_degree=2.0 * num_edges / num_vertices,
            exponent=spec.degree_exponent,
            seed=seed,
        )
    # Respect the real dataset's power-law cutoff (its maximum degree); for
    # scaled-down builds the cap is additionally bounded by the graph size.
    max_degree = spec.max_degree if spec.max_degree > 0 else None
    if max_degree is not None:
        max_degree = max(16, min(max_degree, num_vertices // 4))
    return power_law_graph(
        num_vertices,
        num_edges,
        exponent=spec.degree_exponent,
        max_degree=max_degree,
        seed=seed,
    )


def _build_labels(
    spec: DatasetSpec,
    num_vertices: int,
    adjacency: CSRGraph,
    seed: int,
    features: np.ndarray | None = None,
) -> np.ndarray:
    """Labels with structure a GNN can learn.

    Multi-class datasets get homophilous labels (neighbors tend to agree).
    Multi-label datasets (the PPI stand-in) get labels generated from an
    attention-like relational process — each vertex aggregates its neighbors'
    feature projections weighted by feature similarity — so that relational
    models outperform purely local ones and similarity-weighted aggregation
    (GAT-style) carries signal beyond uniform averaging (GCN-style), which is
    the property Fig. 1 of the paper relies on.
    """
    rng = np.random.default_rng(seed + 1)
    if spec.multilabel:
        if features is None:
            raise ValueError("multilabel label generation requires features")
        hidden = 32
        projection = rng.normal(scale=1.0, size=(features.shape[1], hidden))
        signal = np.tanh(features @ projection)
        # Attention-like neighbor weighting: similarity of projected features.
        # np.add.at accumulates in order, so walking the stored edges and
        # then the self-loops in chunks sums exactly what one pass over the
        # edge list followed by the self-loops would.
        weighted_sum = np.zeros((num_vertices, hidden))
        weight_total = np.zeros(num_vertices)
        vertices = np.arange(num_vertices)
        sources = np.repeat(vertices, adjacency.degrees())
        for edge_src, edge_dst in ((sources, adjacency.indices), (vertices, vertices)):
            for start in range(0, edge_src.size, _LABEL_EDGE_CHUNK):
                src = edge_src[start : start + _LABEL_EDGE_CHUNK]
                dst = edge_dst[start : start + _LABEL_EDGE_CHUNK]
                source = signal[src]
                similarity = np.einsum("ij,ij->i", source, signal[dst])
                similarity = np.exp(similarity / np.sqrt(hidden))
                source *= similarity[:, None]
                np.add.at(weighted_sum, dst, source)
                np.add.at(weight_total, dst, similarity)
        del sources, signal, source  # source: the last self-loop chunk
        weighted_sum /= np.maximum(weight_total, 1e-12)[:, None]
        readout = rng.normal(scale=1.0, size=(hidden, spec.num_labels))
        scores = weighted_sum @ readout
        del weighted_sum
        scores += 0.25 * rng.normal(size=(num_vertices, spec.num_labels))
        # Activate labels above a per-label quantile so each label has a
        # realistic (sparse) positive rate.
        thresholds = np.quantile(scores, 0.85, axis=0)
        labels = (scores > thresholds).astype(np.int64)
        empty = labels.sum(axis=1) == 0
        labels[empty, rng.integers(spec.num_labels, size=int(empty.sum()))] = 1
        return labels
    labels = rng.integers(spec.num_labels, size=num_vertices)
    # One smoothing round: each vertex adopts the majority label of its
    # neighborhood with probability 0.6, giving label assortativity similar
    # to citation networks.
    smoothed = labels.copy()
    adopt = rng.random(num_vertices) < 0.6
    for vertex in np.flatnonzero(adopt):
        neighbors = adjacency.neighbors(vertex)
        if neighbors.size:
            values, counts = np.unique(labels[neighbors], return_counts=True)
            smoothed[vertex] = values[np.argmax(counts)]
    return smoothed


def build_dataset(name: str, *, scale: float | None = None, seed: int = 0) -> Graph:
    """Build the synthetic stand-in for a Table II dataset.

    Args:
        name: Dataset name or abbreviation ("cora", "CS", "Pubmed", ...).
        scale: Optional down-scaling factor in (0, 1]; defaults to the
            registry's per-dataset default (1.0 for the citation graphs,
            smaller for PPI and Reddit).
        seed: Seed controlling topology, features and labels.

    Returns:
        A :class:`~repro.graph.graph.Graph` whose ``name`` is the dataset's
        abbreviation from Table II.  Its topology and features are built
        here; its labels are built from the same seed on first read of
        ``graph.labels``, since inference never reads them.
    """
    spec = dataset_spec(name)
    scaled = spec.scaled(scale)
    adjacency = _build_topology(spec, scaled.num_vertices, scaled.num_edges, seed)
    features = generate_sparse_features(
        scaled.num_vertices,
        spec.feature_length,
        spec.feature_sparsity,
        seed=seed + 7,
        column_skew=spec.column_skew,
    )
    return Graph(
        adjacency=adjacency,
        features=features,
        name=spec.abbreviation,
        num_label_classes=spec.num_labels,
        label_builder=partial(
            _build_labels, spec, scaled.num_vertices, adjacency, seed, features=features
        ),
    )


def tiny_dataset(
    *,
    num_vertices: int = 64,
    feature_length: int = 32,
    num_labels: int = 4,
    average_degree: float = 6.0,
    feature_sparsity: float = 0.8,
    seed: int = 0,
    name: str = "tiny",
) -> Graph:
    """A small power-law graph for unit tests and quick examples."""
    num_edges = int(num_vertices * average_degree / 2)
    adjacency = power_law_graph(num_vertices, num_edges, exponent=2.3, seed=seed)
    features = generate_sparse_features(
        num_vertices, feature_length, feature_sparsity, seed=seed + 3
    )
    rng = np.random.default_rng(seed + 11)
    labels = rng.integers(num_labels, size=num_vertices)
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        name=name,
        num_label_classes=num_labels,
    )
