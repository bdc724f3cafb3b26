"""Scenario-sweep benchmark — the full 5 × 5 × 6 evaluation matrix.

Runs every (dataset, family, backend) cell of the paper's evaluation —
five Table II datasets × five Table III families × GNNIE plus the five
baseline platforms — through the ``repro.sweep`` runner into a resumable
result store, then checks the fleet-level invariants:

* exactly one store row per cell, keyed by the cell content hash,
* a second sweep over the same matrix resumes entirely from the store
  (zero executed cells) and returns byte-identical rows,
* unsupported (backend, family) combinations are present as explicit
  ``supported=False`` rows, never silently missing,
* store-backed aggregation reproduces the headline ordering: GNNIE beats
  every baseline platform on geometric-mean latency.

Datasets use the golden-snapshot scales so the 25 GNNIE simulations stay
cheap; the matrix structure (and therefore the store) is the full one.
"""

from __future__ import annotations

import pytest

from repro.analysis import backend_geomeans, format_table, geomean_table_rows
from repro.datasets import build_dataset
from repro.models import MODEL_FAMILIES
from repro.plan import executor_names
from repro.sweep import (
    DatasetCase,
    ResultStore,
    ScenarioMatrix,
    derive_seed,
    prime_graph_memo,
    run_sweep,
)
from repro.sweep.store import canonical_row

#: Golden-snapshot scales: small enough for the tier-1 budget, large enough
#: that every dataset keeps its degree-distribution character.
SWEEP_CASES = (
    DatasetCase("cora", 0.25),
    DatasetCase("citeseer", 0.25),
    DatasetCase("pubmed", 0.1),
    DatasetCase("ppi", 0.02),
    DatasetCase("reddit", 0.002),
)


@pytest.fixture(scope="session")
def primed_sweep_graphs():
    """Pre-build the golden-scale graphs and seed the worker's dataset memo,
    so the timed sweep measures pricing, not synthetic graph generation."""
    for case in SWEEP_CASES:
        seed = derive_seed(0, case.name)
        prime_graph_memo(
            case.name, case.scale, seed, build_dataset(case.name, scale=case.scale, seed=seed)
        )


def test_full_matrix_sweep(benchmark, record, tmp_path, primed_sweep_graphs):
    matrix = ScenarioMatrix(
        datasets=SWEEP_CASES, families=MODEL_FAMILIES, backends=executor_names(), seed=0
    )
    store_path = tmp_path / "matrix.jsonl"

    def compute():
        return run_sweep(matrix, store=ResultStore(store_path), jobs=1)

    summary = benchmark.pedantic(compute, rounds=1, iterations=1)

    # One row per cell of the full matrix.
    assert summary.total == 5 * 5 * 6
    assert summary.executed == summary.total and summary.skipped == 0
    assert len(summary.rows) == summary.total
    assert len({row["key"] for row in summary.rows}) == summary.total
    assert len(ResultStore(store_path)) == summary.total

    # Unsupported combinations appear as explicit rows: HyGCN has no GAT,
    # AWB-GCN is GCN-only, EnGN covers the non-attention families.
    unsupported = {
        (row["backend"], row["family"]) for row in summary.rows if not row["supported"]
    }
    assert ("awb-gcn", "gat") in unsupported
    assert ("hygcn", "gat") in unsupported
    assert ("gnnie", "gcn") not in unsupported
    assert all(row["metrics"] is None for row in summary.rows if not row["supported"])

    # Resume: the identical matrix executes nothing and returns the same bytes.
    resumed = run_sweep(matrix, store=ResultStore(store_path), jobs=1)
    assert resumed.executed == 0 and resumed.skipped == summary.total
    assert [canonical_row(row) for row in resumed.rows] == [
        canonical_row(row) for row in summary.rows
    ]

    geomeans = backend_geomeans(summary.rows)
    record(
        "sweep_full_matrix",
        format_table(
            geomean_table_rows(summary.rows),
            title="Full 5x5x6 matrix sweep - GNNIE geomean gains per backend",
        ),
    )

    # GNNIE wins on geometric mean against every baseline platform.
    assert set(geomeans) == set(executor_names()) - {"gnnie"}
    for backend, stats in geomeans.items():
        assert stats["geomean_speedup"] > 1.0, backend
