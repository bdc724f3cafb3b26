"""Shared fixtures for the test suite.

Heavy objects (synthetic datasets, cache simulations) are session-scoped so
the several hundred tests stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import build_dataset, tiny_dataset
from repro.graph import CSRGraph, Graph, power_law_graph
from repro.hw import AcceleratorConfig
from repro.mapping import BlockProfile
from repro.sparse import block_nonzero_counts, generate_sparse_features


@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A 64-vertex power-law graph with sparse features."""
    return tiny_dataset(seed=3)


@pytest.fixture(scope="session")
def small_cora() -> Graph:
    """A scaled-down Cora stand-in (fast enough for unit tests)."""
    return build_dataset("cora", scale=0.25, seed=1)


@pytest.fixture(scope="session")
def medium_graph() -> Graph:
    """A ~500-vertex power-law graph used by cache/aggregation tests."""
    adjacency = power_law_graph(500, 2200, exponent=2.2, seed=11)
    features = generate_sparse_features(500, 96, 0.9, seed=5)
    rng = np.random.default_rng(7)
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=rng.integers(5, size=500),
        name="medium",
        num_label_classes=5,
    )


@pytest.fixture(scope="session")
def reddit_bench_adjacency() -> CSRGraph:
    """Reddit at the benchmarks' scale, 0.02 (seed 0): 4,659 vertices and
    806,562 stored edges, with hubs of up to V / 4 neighbours.  Shared by the
    walk pins and the partition oracle, which both want a heavy-tailed graph."""
    return build_dataset("reddit", scale=0.02, seed=0).adjacency


@pytest.fixture(scope="session")
def default_config() -> AcceleratorConfig:
    return AcceleratorConfig()


@pytest.fixture(scope="session")
def profile_of():
    """``profile_of(features, config)``: the block profile of an explicit
    ``(V, F_in)`` feature matrix in ``ceil(F_in / num_rows)``-column blocks,
    the input :func:`repro.mapping.schedule_weighting` reads."""

    def block_profile(features: np.ndarray, config: AcceleratorConfig) -> BlockProfile:
        block_size = -(-features.shape[1] // config.num_rows)
        return BlockProfile.from_counts(block_nonzero_counts(features, block_size))

    return block_profile


@pytest.fixture()
def line_graph() -> CSRGraph:
    """A 6-vertex path graph: simple, hand-checkable adjacency."""
    edges = [(i, i + 1) for i in range(5)]
    return CSRGraph.from_edge_list(edges, num_vertices=6, symmetric=True)


@pytest.fixture()
def star_graph() -> CSRGraph:
    """A star with vertex 0 at the center of 7 leaves (power-law extreme)."""
    edges = [(0, i) for i in range(1, 8)]
    return CSRGraph.from_edge_list(edges, num_vertices=8, symmetric=True)
