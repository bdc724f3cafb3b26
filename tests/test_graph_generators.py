"""Tests for the synthetic graph topology generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    community_graph,
    erdos_renyi_graph,
    power_law_degree_sequence,
    power_law_graph,
)
from repro.graph import generators
from repro.graph.generators import _bucket_table, _search_right, _weighted_choice


# --------------------------------------------------------------------------- #
# The reference: the generators and the CSR build written the direct way, with
# a CSR per community, a symmetrizing re-sort of the stacked edges, numpy's
# ``rng.choice`` and a CSR rebuild for the repair.  The generators must return
# its arrays byte for byte.
# --------------------------------------------------------------------------- #
def _reference_from_edge_list(edges, num_vertices, *, symmetric=True, deduplicate=True):
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    edge_array = edge_array.astype(np.int64, copy=False).reshape(-1, 2)
    if symmetric and edge_array.size:
        edge_array = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
    if deduplicate and edge_array.size:
        keys = np.unique(edge_array[:, 0] * np.int64(num_vertices) + edge_array[:, 1])
        src = keys // num_vertices
        dst = keys % num_vertices
    else:
        src = edge_array[:, 0]
        dst = edge_array[:, 1]
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return CSRGraph(indptr=indptr, indices=dst)


def _reference_power_law_graph(
    num_vertices, target_num_edges, *, exponent=2.3, max_degree=None, seed=0
):
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
    probabilities = weights / total_weight
    expected_out = weights * target_num_edges / total_weight
    out_counts = rng.poisson(expected_out)
    total_samples = int(out_counts.sum())
    if total_samples == 0:
        out_counts[rng.integers(num_vertices)] = 1
        total_samples = 1
    sources = np.repeat(np.arange(num_vertices), out_counts)
    destinations = rng.choice(num_vertices, size=total_samples, p=probabilities)
    edges = np.stack([sources, destinations], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    graph = _reference_from_edge_list(edges, num_vertices, symmetric=True)
    return _reference_ensure_connected_minimum_degree(graph, rng)


def _reference_community_graph(
    num_vertices,
    num_communities,
    *,
    intra_average_degree=20.0,
    inter_edge_fraction=0.05,
    exponent=2.1,
    seed=0,
):
    rng = np.random.default_rng(seed)
    community_of = rng.integers(num_communities, size=num_vertices)
    all_edges = []
    for community in range(num_communities):
        members = np.flatnonzero(community_of == community)
        if members.size < 2:
            continue
        intra_edges = int(members.size * intra_average_degree / 2)
        sub = _reference_power_law_graph(
            members.size,
            max(intra_edges, 1),
            exponent=exponent,
            seed=seed + 17 * (community + 1),
        )
        local = sub.edge_array()
        all_edges.append(np.stack([members[local[:, 0]], members[local[:, 1]]], axis=1))
    intra_total = sum(block.shape[0] for block in all_edges) // 2
    inter_total = int(intra_total * inter_edge_fraction)
    if inter_total > 0:
        src = rng.integers(num_vertices, size=inter_total)
        dst = rng.integers(num_vertices, size=inter_total)
        keep = src != dst
        all_edges.append(np.stack([src[keep], dst[keep]], axis=1))
    edges = np.concatenate(all_edges, axis=0) if all_edges else np.empty((0, 2), dtype=np.int64)
    graph = _reference_from_edge_list(edges, num_vertices, symmetric=True)
    return _reference_ensure_connected_minimum_degree(graph, rng)


def _reference_erdos_renyi_graph(num_vertices, target_num_edges, *, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(num_vertices, size=target_num_edges)
    dst = rng.integers(num_vertices, size=target_num_edges)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    graph = _reference_from_edge_list(edges, num_vertices, symmetric=True)
    return _reference_ensure_connected_minimum_degree(graph, rng)


def _reference_ensure_connected_minimum_degree(graph, rng):
    isolated = np.flatnonzero(graph.degrees() == 0)
    if isolated.size == 0:
        return graph
    partners = rng.integers(graph.num_vertices, size=isolated.size)
    partners = np.where(partners == isolated, (partners + 1) % graph.num_vertices, partners)
    repair = np.stack([isolated, partners], axis=1)
    edges = np.concatenate([graph.edge_array(), repair, repair[:, ::-1]], axis=0)
    return _reference_from_edge_list(
        edges, graph.num_vertices, symmetric=False, deduplicate=True
    )


def _assert_same_csr(actual, expected):
    assert actual.indptr.dtype == expected.indptr.dtype == np.int64
    assert actual.indices.dtype == expected.indices.dtype == np.int64
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)


def _probabilities(kind, categories, rng):
    """A probability vector of one of the shapes the weighted draw must handle."""
    if kind == "zeros":
        weights = rng.random(categories)
        weights[rng.random(categories) < 0.5] = 0.0
        weights[rng.integers(categories)] = 1.0
    elif kind == "hub":
        weights = rng.random(categories)
        weights[rng.integers(categories)] = 1e6 * categories
    elif kind == "uniform":
        weights = np.ones(categories)
    elif kind == "near_uniform":
        weights = 1.0 + 1e-9 * rng.random(categories)
    else:
        weights = power_law_degree_sequence(
            categories, 8.0, 2.1, seed=int(rng.integers(1 << 30))
        ).astype(np.float64)
    return weights / weights.sum()


PROBABILITY_KINDS = ["zeros", "hub", "uniform", "near_uniform", "power_law"]


class TestPowerLawDegreeSequence:
    def test_mean_close_to_target(self):
        degrees = power_law_degree_sequence(5000, 10.0, 2.3, seed=1)
        assert degrees.mean() == pytest.approx(10.0, rel=0.25)

    def test_respects_bounds(self):
        degrees = power_law_degree_sequence(1000, 8.0, 2.1, min_degree=2, max_degree=50, seed=2)
        assert degrees.min() >= 2
        assert degrees.max() <= 50

    def test_heavy_tail_present(self):
        degrees = power_law_degree_sequence(5000, 6.0, 2.0, seed=3)
        assert degrees.max() > 5 * degrees.mean()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            power_law_degree_sequence(0, 5.0, 2.0)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, -1.0, 2.0)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 5.0, 0.9)

    @settings(max_examples=20, deadline=None)
    @given(
        num=st.integers(min_value=10, max_value=2000),
        avg=st.floats(min_value=1.0, max_value=30.0),
        exponent=st.floats(min_value=1.5, max_value=3.5),
    )
    def test_always_positive_integers(self, num, avg, exponent):
        degrees = power_law_degree_sequence(num, avg, exponent, seed=0)
        assert degrees.shape == (num,)
        assert np.issubdtype(degrees.dtype, np.integer)
        assert degrees.min() >= 1


class TestPowerLawGraph:
    def test_edge_count_near_target(self):
        graph = power_law_graph(2000, 10000, seed=4)
        undirected = graph.num_edges / 2
        assert undirected == pytest.approx(10000, rel=0.35)

    def test_no_isolated_vertices(self):
        graph = power_law_graph(500, 800, seed=5)
        assert graph.degrees().min() >= 1

    def test_no_self_loops(self):
        graph = power_law_graph(300, 900, seed=6)
        edges = graph.edge_array()
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_symmetric(self):
        graph = power_law_graph(200, 600, seed=7)
        dense = graph.to_dense()
        np.testing.assert_array_equal(dense, dense.T)

    def test_deterministic_given_seed(self):
        first = power_law_graph(300, 900, seed=8)
        second = power_law_graph(300, 900, seed=8)
        np.testing.assert_array_equal(first.indices, second.indices)

    def test_different_seeds_differ(self):
        first = power_law_graph(300, 900, seed=8)
        second = power_law_graph(300, 900, seed=9)
        assert not np.array_equal(first.indices, second.indices)

    def test_max_degree_cap_respected(self):
        graph = power_law_graph(2000, 12000, max_degree=40, seed=10)
        # The Chung-Lu sampler targets the cap statistically; allow slack for
        # Poisson fluctuation around the capped expectation.
        assert graph.max_degree() <= 80

    def test_power_law_skew(self):
        graph = power_law_graph(3000, 15000, exponent=2.0, seed=11)
        degrees = np.sort(graph.degrees())[::-1]
        top_fraction = degrees[: len(degrees) // 10].sum() / degrees.sum()
        # The top 10% of vertices should hold well over their proportional
        # share of edges (power-law behaviour the cache policy relies on).
        assert top_fraction > 0.25

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            power_law_graph(1, 10)
        with pytest.raises(ValueError):
            power_law_graph(10, 0)


class TestCommunityGraph:
    def test_basic_structure(self):
        graph = community_graph(400, 4, intra_average_degree=10.0, seed=12)
        assert graph.num_vertices == 400
        assert graph.degrees().min() >= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            community_graph(100, 0)
        with pytest.raises(ValueError):
            community_graph(100, 4, inter_edge_fraction=1.5)

    def test_one_vertex_rejected(self):
        # Its repair partner (0 + 1) % 1 would be the vertex itself.
        with pytest.raises(ValueError, match="at least 2"):
            community_graph(1, 1)

    def test_negative_degree_target_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            community_graph(100, 4, intra_average_degree=-1.0)

    def test_deterministic(self):
        first = community_graph(300, 3, seed=13)
        second = community_graph(300, 3, seed=13)
        np.testing.assert_array_equal(first.indices, second.indices)


class TestErdosRenyi:
    def test_edge_count(self):
        graph = erdos_renyi_graph(500, 3000, seed=14)
        assert graph.num_edges / 2 == pytest.approx(3000, rel=0.3)

    def test_degrees_not_power_law(self):
        graph = erdos_renyi_graph(2000, 12000, seed=15)
        degrees = graph.degrees()
        # Uniform random graphs have light-tailed degrees: the maximum stays
        # within a small factor of the mean, unlike the power-law generators.
        assert degrees.max() < 5 * degrees.mean()

    def test_one_vertex_rejected(self):
        # Its repair partner (0 + 1) % 1 would be the vertex itself.
        with pytest.raises(ValueError, match="at least 2"):
            erdos_renyi_graph(1, 3)

    def test_negative_edge_target_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            erdos_renyi_graph(5, -1)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: power_law_graph(2, 1, seed=3),
        lambda: community_graph(2, 1, intra_average_degree=0.0, seed=3),
        lambda: community_graph(2, 2, seed=0),
        lambda: erdos_renyi_graph(2, 0, seed=3),
    ],
)
def test_smallest_graphs_are_one_edge_without_self_loops(generate):
    graph = generate()
    assert graph.indptr.tolist() == [0, 1, 2]
    assert graph.indices.tolist() == [1, 0]


class TestWeightedChoice:
    """The bucket-table draw is numpy's ``Generator.choice(n, size, p=p)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(PROBABILITY_KINDS),
        categories=st.integers(min_value=1, max_value=5000),
        size=st.integers(min_value=0, max_value=20_000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_equals_numpy_choice(self, kind, categories, size, seed):
        probabilities = _probabilities(kind, categories, np.random.default_rng(seed))
        expected_rng = np.random.default_rng(seed)
        actual_rng = np.random.default_rng(seed)
        expected = expected_rng.choice(categories, size=size, p=probabilities)
        actual = _weighted_choice(actual_rng, probabilities, size)
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 3, 1000, generators._DRAW_CHUNK])
    def test_chunks_read_the_same_stream(self, monkeypatch, chunk):
        monkeypatch.setattr(generators, "_DRAW_CHUNK", chunk)
        size = 3 * chunk + 5
        probabilities = _probabilities("power_law", 700, np.random.default_rng(4))
        expected_rng = np.random.default_rng(9)
        actual_rng = np.random.default_rng(9)
        expected = expected_rng.choice(700, size=size, p=probabilities)
        np.testing.assert_array_equal(_weighted_choice(actual_rng, probabilities, size), expected)
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("kind", PROBABILITY_KINDS)
    def test_lookup_on_boundary_doubles(self, kind):
        """0.0, every CDF value and bucket edge, the double just below each,
        and the largest double below 1 land where a binary search puts them."""
        rng = np.random.default_rng(11)
        for categories in range(1, 160):
            probabilities = _probabilities(kind, categories, rng)
            cdf = probabilities.cumsum()
            cdf /= cdf[-1]
            edges, first = _bucket_table(cdf)
            points = np.concatenate([cdf, edges])
            uniform = np.concatenate([[0.0, 1.0 - 2.0**-53], points, np.nextafter(points, 0.0)])
            uniform = uniform[uniform < 1.0]
            np.testing.assert_array_equal(
                _search_right(cdf, uniform, edges, first),
                cdf.searchsorted(uniform, side="right"),
            )


# --------------------------------------------------------------------------- #
# Byte for byte against the reference
# --------------------------------------------------------------------------- #
@st.composite
def _edge_lists(draw):
    num_vertices = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    return num_vertices, draw(st.lists(st.tuples(vertex, vertex), max_size=40))


class TestMatchesTheReference:
    """Every generator and ``from_edge_list`` return the reference's CSR arrays."""

    @settings(max_examples=100, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=400),
        target_num_edges=st.integers(min_value=1, max_value=4000),
        exponent=st.floats(min_value=1.5, max_value=3.5),
        max_degree=st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_power_law_graph(self, num_vertices, target_num_edges, **kwargs):
        _assert_same_csr(
            power_law_graph(num_vertices, target_num_edges, **kwargs),
            _reference_power_law_graph(num_vertices, target_num_edges, **kwargs),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=800),
        num_communities=st.integers(min_value=1, max_value=8),
        intra_average_degree=st.floats(min_value=0.0, max_value=30.0),
        inter_edge_fraction=st.floats(min_value=0.0, max_value=0.5),
        exponent=st.floats(min_value=1.5, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_community_graph(self, num_vertices, num_communities, **kwargs):
        _assert_same_csr(
            community_graph(num_vertices, num_communities, **kwargs),
            _reference_community_graph(num_vertices, num_communities, **kwargs),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=500),
        target_num_edges=st.integers(min_value=0, max_value=4000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_erdos_renyi_graph(self, num_vertices, target_num_edges, seed):
        _assert_same_csr(
            erdos_renyi_graph(num_vertices, target_num_edges, seed=seed),
            _reference_erdos_renyi_graph(num_vertices, target_num_edges, seed=seed),
        )

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("deduplicate", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(data=_edge_lists(), as_array=st.booleans())
    def test_from_edge_list(self, symmetric, deduplicate, data, as_array):
        num_vertices, edges = data
        if as_array:
            edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        options = {"symmetric": symmetric, "deduplicate": deduplicate}
        _assert_same_csr(
            CSRGraph.from_edge_list(edges, num_vertices, **options),
            _reference_from_edge_list(edges, num_vertices, **options),
        )

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("deduplicate", [True, False])
    @pytest.mark.parametrize(
        "edges",
        [[], [(0, 0)], [(1, 1), (1, 1)], [(2, 1), (1, 2), (2, 1), (0, 0), (2, 2)]],
    )
    def test_from_edge_list_corner_cases(self, symmetric, deduplicate, edges):
        options = {"symmetric": symmetric, "deduplicate": deduplicate}
        _assert_same_csr(
            CSRGraph.from_edge_list(edges, 3, **options),
            _reference_from_edge_list(edges, 3, **options),
        )
