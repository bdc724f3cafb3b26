"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section VIII).  Datasets and GNNIE simulation results are expensive, so they
are built once per session and shared; each benchmark prints the reproduced
rows/series and also writes them to ``benchmarks/results/<experiment>.txt``
so the output survives pytest's stdout capture.  Next
to each ``.txt``, a structured ``<experiment>.json`` records the test id
and — when the benchmark passes its rows via ``data=`` — the
machine-readable figures (cycles, energy, speedups) for downstream plotting.
Neither file records host timing, so both are byte-stable: a diff in them
means the model changed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.baselines import AWBGCNModel, HyGCNModel, PyGCPUModel, PyGGPUModel
from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig
from repro.plan import lower
from repro.sim import GNNIEExecutor

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale factors used for the two large graphs (their registry defaults,
#: ``DatasetSpec.default_scale``).
BENCH_SCALES = {"ppi": 0.25, "reddit": 0.02}

#: The three citation datasets used by the optimization-analysis figures.
CITATION_DATASETS = ("cora", "citeseer", "pubmed")

#: All five evaluation datasets (Table II).
ALL_DATASETS = ("cora", "citeseer", "pubmed", "ppi", "reddit")


@pytest.fixture(scope="session")
def datasets():
    """All five benchmark datasets, built once at their bench scales."""
    return {
        name: build_dataset(name, scale=BENCH_SCALES.get(name), seed=0) for name in ALL_DATASETS
    }


@pytest.fixture(scope="session")
def citation_datasets(datasets):
    return {name: datasets[name] for name in CITATION_DATASETS}


@pytest.fixture(scope="session")
def gnnie_run(datasets):
    """Memoized GNNIE inference runner keyed by (dataset, family)."""
    executor = GNNIEExecutor(AcceleratorConfig())

    @functools.lru_cache(maxsize=None)
    def run(dataset_name: str, family: str):
        graph = datasets[dataset_name]
        return executor.execute(lower(family, graph), graph)

    return run


@pytest.fixture(scope="session")
def sweep_rows(datasets):
    """One shared sweep over the union evaluation matrix, priced per session.

    Runs every (dataset × family × backend) cell of the paper's evaluation
    once through the sweep runner's batch path — the figure and table
    benchmarks (Figs. 12/13/15, Table IV) aggregate slices of these rows via
    :mod:`repro.analysis.sweep_aggregate` instead of each re-running its own
    simulations, which is where the suite's wall-time drop comes from.
    """
    from repro.models import MODEL_FAMILIES
    from repro.plan import executor_names
    from repro.sweep import DatasetCase, RetryPolicy, ScenarioMatrix, run_sweep

    matrix = ScenarioMatrix(
        datasets=tuple(
            DatasetCase(name, BENCH_SCALES.get(name), seed=0) for name in ALL_DATASETS
        ),
        families=tuple(MODEL_FAMILIES),
        backends=executor_names(),
        seed=0,
    )
    # Strict, no-retry policy: a benchmark bug should fail the session
    # loudly via SweepError, never soak up silent retries or land failed
    # rows that would skew the aggregated figures.
    strict = RetryPolicy(max_attempts=1, failed_rows=False)
    return run_sweep(matrix, jobs=1, graphs=datasets, retry=strict).rows


@pytest.fixture(scope="session")
def sweep_index(sweep_rows):
    """Sweep rows keyed by (backend, dataset, family) — unique in the union
    matrix, which sweeps a single (default) configuration."""
    return {(row["backend"], row["dataset"], row["family"]): row for row in sweep_rows}


@pytest.fixture(scope="session")
def baseline_platforms():
    return {
        "PyG-CPU": PyGCPUModel(),
        "PyG-GPU": PyGGPUModel(),
        "HyGCN": HyGCNModel(),
        "AWB-GCN": AWBGCNModel(),
    }


@pytest.fixture()
def record(request):
    """Print a reproduced table/series and persist it under benchmarks/results/.

    Writes ``<experiment>.txt`` (the human-readable table) and
    ``<experiment>.json`` (test id and the structured rows when the
    benchmark passes them via ``data=``).
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(experiment: str, text: str, data: list | dict | None = None) -> None:
        print(f"\n===== {experiment} =====\n{text}\n")
        (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")
        document = {
            "experiment": experiment,
            "test": request.node.nodeid,
            "rows": data,
        }
        (RESULTS_DIR / f"{experiment}.json").write_text(
            json.dumps(document, indent=2, default=float) + "\n"
        )

    return _record
