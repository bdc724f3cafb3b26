"""Tests for the dataset registry and synthetic dataset builders."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.check import verify_plan
from repro.datasets import (
    DATASET_SPECS,
    build_dataset,
    dataset_names,
    dataset_spec,
    synthetic,
    tiny_dataset,
)
from repro.datasets.synthetic import _build_labels
from repro.graph import Graph
from repro.plan import lower
from repro.scaleout import execute_scaleout
from repro.sim import GNNIEExecutor

#: ``build_dataset(name, scale=scale, seed=0).labels``: shape and the sha256
#: of its int64 bytes.  Any change to the label generator moves these.
LABEL_PINS = {
    ("cora", 1.0): (
        (2708,),
        "7a2d6f19aebabd125a8f523e0da6d3a49c5cf51227251256062ff8a2c9da0746",
    ),
    ("citeseer", 1.0): (
        (3327,),
        "f2f0e7ba347c4259ec3184b06ad694d89f2aa0553f2cf7713d8d8c1ceadbc487",
    ),
    ("pubmed", 0.3): (
        (5915,),
        "d95499dbe9adaf8a62418abaf6249c56adab24ea888aee995ee6145bdf735899",
    ),
    ("ppi", 0.05): (
        (2847, 121),
        "352c8c3611f51acf080c0974db9984c9ddf2f1522319ca8b8c699e7347ee1baa",
    ),
    ("ppi", 0.25): (
        (14236, 121),
        "8014a4cb28aff64870ef53517ecf2a7e6925fcfafb36fe97b940ddca4759cddd",
    ),
    ("reddit", 0.01): (
        (2330,),
        "d9c65ea3436a367b459ac2093a5331110c43c1299a62ab98534710ea3dad4925",
    ),
}

#: sha256 of the float64 bytes of ``build_dataset(name, scale=scale,
#: seed=0).features`` at the pairs of ``LABEL_PINS``.  Any change to the
#: feature generator or to the stream it reads moves these.
FEATURE_PINS = {
    ("cora", 1.0): "af1ea4d300eb5310197954915c227308f50cdac912a3173f1e4f35c2f0c7580f",
    ("citeseer", 1.0): "1ef0101e9fd38990850d24dce6ea978c6de10f2f875f00ae79e388f7a17ca1fe",
    ("pubmed", 0.3): "a277888014e2a6d81dd8c2b540d45754c2b8567db56fb9a20db181089f0f4275",
    ("ppi", 0.05): "a8a5b02d0a7ef63b4d30914205d12cb7b51bc4145a16dbb9e7b077865278dbfa",
    ("ppi", 0.25): "0c9f94dcd38e0f33f959b0de348e4f36ae09586ec8722380d278bd4f3415c2c7",
    ("reddit", 0.01): "66b91b734a6395680f1c75ac70db08ba0db1fbe5fc64973b66fbfaccc23bc720",
}

#: ``build_dataset(name, scale=scale, seed=0).adjacency`` at the pairs of
#: ``LABEL_PINS``: its stored directed edges and the sha256 of
#: ``indptr.tobytes() + indices.tobytes()``.  Any change to a topology
#: generator, to the CSR build or to the random draws they read moves these.
TOPOLOGY_PINS = {
    ("cora", 1.0): (
        20968,
        "a77d271b9d3fca7e3b2a414e7fff7925b1775d5f9cf1c2d440e7e29e7f1b388c",
    ),
    ("citeseer", 1.0): (
        18206,
        "25f7ac82d4ceed64c5a59b7be81a880809821df43d48782810937da4918809e4",
    ),
    ("pubmed", 0.3): (
        52928,
        "1ba7e335a419dcd3446172e61d5a94d0abb68fe473480404148935a54fae2d25",
    ),
    ("ppi", 0.05): (
        114586,
        "8c6dd929cec557319c11f0f3837347b87fc170c4b85bd94016c6d0dc8871fa90",
    ),
    ("ppi", 0.25): (
        585782,
        "365377d1130e2ba0a9398c150acfbd345f1510e5e458bfdce608920ee307d2a8",
    ),
    ("reddit", 0.01): (
        208584,
        "11fd3425feb80ce6de5d4705051ae5fb0613de53efdacc06e6b9b9580abd80b9",
    ),
}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class _CountingLabelBuilder:
    """Stands in for ``synthetic._build_labels`` and counts its calls.

    A module-level class holding only its count, so a graph whose label
    builder wraps it still pickles.
    """

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, *args, **kwargs) -> np.ndarray:
        self.calls += 1
        return _build_labels(*args, **kwargs)


class TestRegistry:
    def test_all_five_paper_datasets_registered(self):
        assert set(dataset_names()) == {"cora", "citeseer", "pubmed", "ppi", "reddit"}

    def test_lookup_by_name_and_abbreviation(self):
        assert dataset_spec("cora").abbreviation == "CR"
        assert dataset_spec("CS").name == "Citeseer"
        assert dataset_spec("Pubmed").num_vertices == 19717

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_spec("imagenet")

    def test_table2_published_statistics(self):
        """Registry entries must carry the exact Table II numbers."""
        spec = dataset_spec("cora")
        assert (spec.num_vertices, spec.num_edges, spec.feature_length, spec.num_labels) == (
            2708,
            10556,
            1433,
            7,
        )
        spec = dataset_spec("citeseer")
        assert (spec.num_vertices, spec.num_edges, spec.feature_length, spec.num_labels) == (
            3327,
            9104,
            3703,
            6,
        )
        spec = dataset_spec("pubmed")
        assert (spec.num_vertices, spec.num_edges, spec.feature_length, spec.num_labels) == (
            19717,
            88648,
            500,
            3,
        )
        assert dataset_spec("ppi").num_labels == 121
        assert dataset_spec("reddit").num_vertices == 232_965

    def test_feature_sparsity_values(self):
        assert dataset_spec("cora").feature_sparsity == pytest.approx(0.9873)
        assert dataset_spec("reddit").feature_sparsity == pytest.approx(0.484)

    def test_average_degree(self):
        assert dataset_spec("cora").average_degree == pytest.approx(2 * 10556 / 2708)

    def test_scaled_spec(self):
        scaled = dataset_spec("ppi").scaled(0.1)
        assert scaled.is_scaled
        assert scaled.num_vertices == pytest.approx(5694, rel=0.01)
        with pytest.raises(ValueError):
            dataset_spec("ppi").scaled(0.0)
        with pytest.raises(ValueError):
            dataset_spec("ppi").scaled(2.0)

    def test_scaled_density_cap(self):
        scaled = dataset_spec("reddit").scaled(0.02)
        density = 2 * scaled.num_edges / (scaled.num_vertices**2)
        assert density <= 0.11

    def test_large_datasets_default_to_scaled(self):
        assert dataset_spec("reddit").default_scale < 1.0
        assert dataset_spec("ppi").default_scale < 1.0
        assert dataset_spec("cora").default_scale == 1.0


class TestScaledEdgeCases:
    """Boundary behaviour of DatasetSpec.scaled and registry lookup."""

    def test_scale_exactly_one_keeps_published_counts(self):
        spec = dataset_spec("cora")
        scaled = spec.scaled(1.0)
        assert (scaled.num_vertices, scaled.num_edges) == (
            spec.num_vertices,
            spec.num_edges,
        )
        assert not scaled.is_scaled and scaled.scale == 1.0

    def test_scale_just_outside_bounds_rejected(self):
        spec = dataset_spec("cora")
        for bad in (0.0, -0.1, 1.0 + 1e-9, 2.0):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                spec.scaled(bad)

    def test_scale_just_inside_bounds_accepted(self):
        spec = dataset_spec("cora")
        assert spec.scaled(1.0 - 1e-9).is_scaled
        tiny = spec.scaled(1e-9)
        # The vertex floor keeps degenerate scales simulable.
        assert tiny.num_vertices == 64
        assert tiny.num_edges >= tiny.num_vertices

    def test_density_cap_binds_on_tiny_reddit_scales(self):
        """Reddit's edge count collapses onto the 5% adjacency-density cap."""
        scaled = dataset_spec("reddit").scaled(0.002)
        cap = int(0.05 * scaled.num_vertices * scaled.num_vertices / 2)
        assert scaled.num_edges == cap
        # Without the cap the naive scaled edge count would be far larger.
        assert int(round(114_600_000 * 0.002)) > cap

    def test_density_cap_never_undercuts_vertex_floor(self):
        """At the 64-vertex floor the cap stays above num_vertices edges."""
        scaled = dataset_spec("reddit").scaled(1e-6)
        assert scaled.num_vertices == 64
        assert scaled.num_edges >= scaled.num_vertices
        density = 2 * scaled.num_edges / scaled.num_vertices**2
        assert density <= 0.05 + 1e-9

    def test_cap_inactive_for_sparse_citation_graphs(self):
        spec = dataset_spec("pubmed")
        scaled = spec.scaled(0.5)
        assert scaled.num_edges == int(round(spec.num_edges * 0.5))

    def test_lookup_by_canonical_name(self):
        assert dataset_spec("ppi").abbreviation == "PPI"
        assert dataset_spec("reddit").name == "Reddit"

    def test_lookup_by_abbreviation_any_case(self):
        assert dataset_spec("rd").name == "Reddit"
        assert dataset_spec("Rd").name == "Reddit"
        assert dataset_spec("pb").name == "Pubmed"

    def test_lookup_by_full_name_mixed_case(self):
        assert dataset_spec("CoRa").abbreviation == "CR"
        assert dataset_spec("ReDdIt").abbreviation == "RD"
        assert dataset_spec("Protein-Protein Interaction").abbreviation == "PPI"

    def test_lookup_strips_whitespace(self):
        assert dataset_spec("  cora  ").abbreviation == "CR"

    def test_lookup_unknown_reports_known_names(self):
        with pytest.raises(KeyError, match="known"):
            dataset_spec("ogbn-arxiv")


class TestBuildDataset:
    @pytest.fixture(scope="class")
    def cora(self):
        return build_dataset("cora", seed=0)

    def test_cora_matches_spec(self, cora):
        spec = dataset_spec("cora")
        assert cora.num_vertices == spec.num_vertices
        assert cora.feature_length == spec.feature_length
        assert cora.num_label_classes == spec.num_labels
        undirected_edges = cora.num_edges / 2
        assert undirected_edges == pytest.approx(spec.num_edges, rel=0.3)
        assert cora.feature_sparsity() == pytest.approx(spec.feature_sparsity, abs=0.02)

    def test_cora_degree_cap(self, cora):
        assert cora.adjacency.max_degree() <= 2 * dataset_spec("cora").max_degree

    def test_cora_labels_valid(self, cora):
        assert cora.labels.min() >= 0
        assert cora.labels.max() < 7

    def test_label_homophily(self, cora):
        """Neighbors agree on labels more often than random chance."""
        edges = cora.adjacency.edge_array()
        agreement = np.mean(cora.labels[edges[:, 0]] == cora.labels[edges[:, 1]])
        assert agreement > 1.0 / 7 + 0.05

    def test_scaled_build(self):
        graph = build_dataset("pubmed", scale=0.1, seed=0)
        assert graph.num_vertices == pytest.approx(1972, abs=5)
        assert graph.name == "PB"

    def test_ppi_is_multilabel(self):
        graph = build_dataset("ppi", scale=0.02, seed=0)
        assert graph.labels.ndim == 2
        assert graph.labels.shape[1] == 121
        assert np.all(graph.labels.sum(axis=1) >= 1)

    def test_deterministic_given_seed(self):
        first = build_dataset("cora", scale=0.1, seed=5)
        second = build_dataset("cora", scale=0.1, seed=5)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.adjacency.indices, second.adjacency.indices)

    @pytest.mark.parametrize(("name", "scale"), sorted(FEATURE_PINS))
    def test_features_pinned(self, name, scale):
        features = build_dataset(name, scale=scale, seed=0).features
        (num_vertices, *_), _ = LABEL_PINS[name, scale]
        assert features.dtype == np.float64
        assert features.shape == (num_vertices, dataset_spec(name).feature_length)
        assert _digest(features) == FEATURE_PINS[name, scale]

    @pytest.mark.parametrize(("name", "scale"), sorted(TOPOLOGY_PINS))
    def test_topology_pinned(self, name, scale):
        adjacency = build_dataset(name, scale=scale, seed=0).adjacency
        (num_vertices, *_), _ = LABEL_PINS[name, scale]
        num_edges, digest = TOPOLOGY_PINS[name, scale]
        assert (adjacency.num_vertices, adjacency.num_edges) == (num_vertices, num_edges)
        content = adjacency.indptr.tobytes() + adjacency.indices.tobytes()
        assert hashlib.sha256(content).hexdigest() == digest

    def test_different_seeds_differ(self):
        first = build_dataset("cora", scale=0.1, seed=5)
        second = build_dataset("cora", scale=0.1, seed=6)
        assert not np.array_equal(first.adjacency.indices, second.adjacency.indices)


class TestTinyDataset:
    def test_shapes(self):
        graph = tiny_dataset(num_vertices=32, feature_length=16, num_labels=3)
        assert graph.num_vertices == 32
        assert graph.feature_length == 16
        assert graph.num_label_classes == 3

    def test_stats_row_keys(self):
        row = tiny_dataset().stats().as_row()
        assert {"dataset", "vertices", "edges", "feature_length", "labels"} <= set(row)

    def test_memory_footprint(self):
        graph = tiny_dataset()
        assert graph.memory_footprint_bytes() > 0

    def test_graphs_compare_by_identity(self):
        # Equal-content graphs hold distinct arrays; comparing them must
        # return a bool rather than raise on an ambiguous array truth value.
        first, second = tiny_dataset(), tiny_dataset()
        assert (first == second) is False
        assert first == first and first in [second, first]
        assert (first.adjacency == second.adjacency) is False
        assert first.adjacency == first.adjacency

    def test_feature_shape_mismatch_rejected(self):
        graph = tiny_dataset(num_vertices=16, feature_length=8)
        with pytest.raises(ValueError):
            Graph(adjacency=graph.adjacency, features=np.ones((4, 8)))

    def test_wrong_length_labels_rejected_at_construction(self):
        graph = tiny_dataset(num_vertices=16, feature_length=8)
        with pytest.raises(ValueError, match="one entry per vertex"):
            Graph(
                adjacency=graph.adjacency,
                features=graph.features,
                labels=np.zeros(15, dtype=np.int64),
            )


class TestLabels:
    @pytest.mark.parametrize(("name", "scale"), sorted(LABEL_PINS))
    def test_labels_pinned(self, name, scale):
        labels = build_dataset(name, scale=scale, seed=0).labels
        shape, digest = LABEL_PINS[name, scale]
        assert labels.dtype == np.int64
        assert labels.shape == shape
        assert _digest(labels) == digest

    def test_labels_built_on_first_read(self, monkeypatch):
        """Inference never builds labels; the first read builds them once."""
        counting = _CountingLabelBuilder()
        monkeypatch.setattr(synthetic, "_build_labels", counting)
        graph = build_dataset("ppi", scale=0.05, seed=0)
        plan = verify_plan(lower("gcn", graph))
        GNNIEExecutor().execute(plan, graph)
        execute_scaleout(GNNIEExecutor(), plan, graph, None, chips=2)
        copy = pickle.loads(pickle.dumps(graph))
        assert counting.calls == 0
        assert graph.num_label_classes == 121

        labels = graph.labels
        assert counting.calls == 1
        assert _digest(labels) == LABEL_PINS["ppi", 0.05][1]
        assert graph.labels is labels
        assert counting.calls == 1
        np.testing.assert_array_equal(copy.labels, labels)

    def test_built_labels_validated_on_first_read(self):
        graph = tiny_dataset(num_vertices=16, feature_length=8)
        deferred = Graph(
            adjacency=graph.adjacency,
            features=graph.features,
            label_builder=lambda: np.zeros(15, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="one entry per vertex"):
            deferred.labels
