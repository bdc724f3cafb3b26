"""Table II — benchmark dataset statistics.

Regenerates the dataset-information table (vertices, edges, feature length,
labels, feature sparsity) from the synthetic stand-ins and checks them
against the published statistics carried by the registry.  PPI and Reddit are
built at their bench scales (``BENCH_SCALES`` in ``conftest.py``), so their
absolute counts are scaled while per-vertex statistics are preserved.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.datasets import dataset_spec


def test_table2_dataset_statistics(benchmark, record, datasets):
    rows = benchmark.pedantic(
        lambda: [graph.stats().as_row() for graph in datasets.values()],
        rounds=1,
        iterations=1,
    )
    record("table2_datasets", format_table(rows, title="Table II — dataset statistics (synthetic stand-ins)"))

    for name, graph in datasets.items():
        spec = dataset_spec(name)
        # Feature length and label count are exact.
        assert graph.feature_length == spec.feature_length
        assert graph.num_label_classes == spec.num_labels
        # Feature sparsity matches the published value closely.
        assert graph.feature_sparsity() == pytest.approx(spec.feature_sparsity, abs=0.03)
        # Adjacency is highly sparse for every dataset (paper: >96%).
        assert graph.adjacency.sparsity() > 0.9
        # Full-scale datasets reproduce the vertex/edge counts.
        if spec.default_scale == 1.0 and name in ("cora", "citeseer", "pubmed"):
            assert graph.num_vertices == spec.num_vertices
            assert graph.num_edges / 2 == pytest.approx(spec.num_edges, rel=0.35)

    # Power-law skew: the top 10% highest-degree vertices hold a
    # disproportionate share of edges (the Reddit effect the paper cites).
    import numpy as np

    for name in ("pubmed", "reddit"):
        degrees = np.sort(datasets[name].degrees())[::-1]
        top_share = degrees[: len(degrees) // 10].sum() / degrees.sum()
        assert top_share > 0.2
