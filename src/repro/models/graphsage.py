"""GraphSAGE layer [Hamilton et al. 2017].

Layer rule (Table I of the paper):

    h^l_i = σ( a_k( h^{l-1}_j W^l  ∀ j ∈ {i} ∪ SN(i) ) )

where ``SN(i)`` is a fixed-size random sample of the neighborhood and ``a_k``
is the aggregator (mean, max/pooling, or sum).  The paper's evaluation uses
max aggregation with a sample size of 25 (Table III) and counts the cost of
neighbor sampling — performed by cycling through a pregenerated stream of
random numbers — in the reported speedups; :class:`NeighborSampler` mirrors
that pregenerated-stream approach so the simulator can charge the same cost.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.models.base import GNNLayer, apply_activation
from repro.models.layers import glorot_init, segment_max, segment_mean, segment_sum

__all__ = ["GraphSAGELayer", "NeighborSampler"]


class NeighborSampler:
    """Uniform neighbor sampler driven by a pregenerated random stream.

    The paper notes that "neighborhood sampling for GraphSAGE is based on
    cycling through a pregenerated set of random numbers" and includes the
    generation cost; this class reproduces that structure: a fixed pool of
    uniform draws is generated once and consumed round-robin, making the
    sampled subgraph deterministic given the seed.
    """

    def __init__(self, *, pool_size: int = 1 << 16, seed: int = 0) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        rng = np.random.default_rng(seed)
        self._pool = rng.random(pool_size)
        self._cursor = 0

    def _next(self, count: int) -> np.ndarray:
        """Take ``count`` pregenerated uniforms, cycling through the pool."""
        positions = (self._cursor + np.arange(count)) % self._pool.size
        self._cursor = int((self._cursor + count) % self._pool.size)
        return self._pool[positions]

    def sample_edges(self, adjacency: CSRGraph, sample_size: int) -> np.ndarray:
        """Sampled (source, destination) edge array with ≤ ``sample_size`` in-edges per vertex.

        A neighborhood of at most ``sample_size`` vertices is kept whole.  A
        larger one takes ``sample_size`` draws from the pool; over-full
        neighborhoods consume the pool in vertex order.
        """
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        degrees = adjacency.degrees()
        counts = np.minimum(degrees, sample_size)
        ends = np.cumsum(counts)
        # Slot i of vertex v's output reads indices[indptr[v] + i] ...
        gather = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
        gather += np.repeat(adjacency.indptr[:-1] - (ends - counts), counts)
        # ... except in an over-full neighborhood, which reads its draws.
        over = np.flatnonzero(degrees > sample_size)
        draws = self._next(over.size * sample_size).reshape(over.size, sample_size)
        slots = (ends[over] - sample_size)[:, None] + np.arange(sample_size)
        gather[slots] = adjacency.indptr[over, None] + (
            draws * degrees[over, None]
        ).astype(np.int64)
        destinations = np.repeat(np.arange(adjacency.num_vertices, dtype=np.int64), counts)
        return np.stack([adjacency.indices[gather], destinations], axis=1)


class GraphSAGELayer(GNNLayer):
    """GraphSAGE layer with mean / max / sum aggregation over sampled neighbors."""

    model_name = "GraphSAGE"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        aggregator: str = "max",
        sample_size: int = 25,
        activation: str = "relu",
        seed: int = 0,
    ) -> None:
        super().__init__(in_features, out_features, activation=activation)
        if aggregator not in ("mean", "max", "sum"):
            raise ValueError("aggregator must be one of 'mean', 'max', 'sum'")
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        self.aggregator = aggregator
        self.sample_size = sample_size
        self.weight = glorot_init(in_features, out_features, seed=seed)
        self.sampler = NeighborSampler(seed=seed + 101)

    def weight_matrices(self) -> list[np.ndarray]:
        return [self.weight]

    def forward(self, adjacency: CSRGraph, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {features.shape[1]}"
            )
        weighted = features @ self.weight
        edges = self.sampler.sample_edges(adjacency, self.sample_size)
        num_vertices = adjacency.num_vertices
        if edges.size == 0:
            aggregated = np.zeros_like(weighted)
        else:
            messages = weighted[edges[:, 0]]
            if self.aggregator == "mean":
                aggregated = segment_mean(messages, edges[:, 1], num_vertices)
            elif self.aggregator == "max":
                aggregated = segment_max(messages, edges[:, 1], num_vertices)
            else:
                aggregated = segment_sum(messages, edges[:, 1], num_vertices)
        # Include the vertex's own weighted features ({i} ∪ SN(i)).
        if self.aggregator == "max":
            aggregated = np.maximum(aggregated, weighted)
        else:
            aggregated = aggregated + weighted
        return apply_activation(aggregated, self.activation)
