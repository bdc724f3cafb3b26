"""Benchmark dataset registry (Table II of the paper).

Each entry records the published statistics of one of the five evaluation
datasets: Cora, Citeseer, Pubmed, PPI, and Reddit.  The synthetic builders in
:mod:`repro.datasets.synthetic` target these statistics; the Table II
benchmark checks how closely the generated graphs match them.

Because the two large graphs (PPI: 1.63M edges, Reddit: 114.6M edges) are too
expensive to simulate at full scale in pure Python, the registry also carries
a default *scale factor* used when building the synthetic stand-in.  The
scaled vertex/edge counts preserve the average degree and the power-law shape
so the caching and load-balancing behaviour under study is unchanged; see
``DatasetSpec.default_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DatasetSpec", "DATASET_SPECS", "dataset_spec", "dataset_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of a benchmark dataset (one row of Table II)."""

    name: str
    abbreviation: str
    num_vertices: int
    num_edges: int
    feature_length: int
    num_labels: int
    feature_sparsity: float
    #: Power-law exponent used by the synthetic generator (fit to the real
    #: degree distribution shape: citation graphs are steep, Reddit is heavy
    #: tailed).
    degree_exponent: float
    #: Zipf exponent of the feature-column popularity distribution used by
    #: the synthetic generator (bag-of-words vocabularies are Zipfian; denser
    #: TF-IDF style features such as Pubmed's are more skewed per block).
    column_skew: float = 1.0
    #: Largest vertex degree of the real dataset (natural cutoff of the
    #: power-law tail); 0 means "no explicit cap".
    max_degree: int = 0
    #: Whether the dataset is multi-label (PPI) rather than multi-class.
    multilabel: bool = False
    #: Default down-scaling factor for simulation (1 = full scale).
    default_scale: float = 1.0
    #: Topology family used by the synthetic builder.
    topology: str = "power_law"

    @property
    def average_degree(self) -> float:
        """Average undirected degree implied by the published counts."""
        return 2.0 * self.num_edges / self.num_vertices

    def scaled(self, scale: float | None = None) -> "ScaledDatasetSpec":
        """Vertex/edge counts after applying a scale factor."""
        factor = self.default_scale if scale is None else scale
        if factor <= 0 or factor > 1:
            raise ValueError("scale must be in (0, 1]")
        num_vertices = max(64, int(round(self.num_vertices * factor)))
        num_edges = max(num_vertices, int(round(self.num_edges * factor)))
        # Keep the scaled adjacency sparse: very dense graphs (Reddit at a
        # small vertex scale) would lose the sparsity property that GNNIE's
        # mechanisms are designed around, so the edge count is capped at a
        # 5% adjacency density.
        density_cap = int(0.05 * num_vertices * num_vertices / 2)
        num_edges = max(num_vertices, min(num_edges, density_cap))
        return ScaledDatasetSpec(spec=self, scale=factor, num_vertices=num_vertices, num_edges=num_edges)


@dataclass(frozen=True)
class ScaledDatasetSpec:
    """A dataset spec with scaling applied, ready for the synthetic builder."""

    spec: DatasetSpec
    scale: float
    num_vertices: int
    num_edges: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_scaled(self) -> bool:
        return self.scale < 1.0


# Table II of the paper [Sen et al. 2008 / Hamilton et al. 2017 statistics].
# Reddit's "48.4%" feature sparsity reflects dense embeddings; the citation
# graphs use bag-of-words features and are ultra sparse.
DATASET_SPECS: dict[str, DatasetSpec] = {
    "cora": DatasetSpec(
        name="Cora",
        abbreviation="CR",
        num_vertices=2708,
        num_edges=10556,
        feature_length=1433,
        num_labels=7,
        feature_sparsity=0.9873,
        degree_exponent=2.7,
        column_skew=0.9,
        max_degree=168,
    ),
    "citeseer": DatasetSpec(
        name="Citeseer",
        abbreviation="CS",
        num_vertices=3327,
        num_edges=9104,
        feature_length=3703,
        num_labels=6,
        feature_sparsity=0.9915,
        degree_exponent=2.8,
        column_skew=1.0,
        max_degree=99,
    ),
    "pubmed": DatasetSpec(
        name="Pubmed",
        abbreviation="PB",
        num_vertices=19717,
        num_edges=88648,
        feature_length=500,
        num_labels=3,
        feature_sparsity=0.90,
        degree_exponent=2.4,
        column_skew=1.3,
        max_degree=171,
    ),
    "ppi": DatasetSpec(
        name="Protein-protein interaction",
        abbreviation="PPI",
        num_vertices=56944,
        num_edges=1_630_000,
        feature_length=50,
        num_labels=121,
        feature_sparsity=0.981,
        degree_exponent=2.0,
        column_skew=0.8,
        max_degree=721,
        multilabel=True,
        default_scale=0.25,
        topology="community",
    ),
    "reddit": DatasetSpec(
        name="Reddit",
        abbreviation="RD",
        num_vertices=232_965,
        num_edges=114_600_000,
        feature_length=602,
        num_labels=41,
        feature_sparsity=0.484,
        degree_exponent=1.8,
        column_skew=0.4,
        max_degree=21657,
        default_scale=0.02,
    ),
}


def dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name or abbreviation (case insensitive)."""
    key = name.strip().lower()
    if key in DATASET_SPECS:
        return DATASET_SPECS[key]
    for spec in DATASET_SPECS.values():
        if spec.abbreviation.lower() == key or spec.name.lower() == key:
            return spec
    raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASET_SPECS)}")


def dataset_names() -> list[str]:
    """Canonical lowercase names of all registered datasets."""
    return list(DATASET_SPECS.keys())
