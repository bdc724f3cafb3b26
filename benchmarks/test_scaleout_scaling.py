"""Multi-chip scale-out scaling curves (1 → 16 simulated GNNIE chips).

Partitions two workloads — the Reddit stand-in at its bench scale and a
dense synthetic power-law graph — across 1, 2, 4, 8 and 16 chips through
:func:`repro.scaleout.execute_scaleout` and records the scaling curve:
fleet cycles, the per-chip compute critical path, communication cycles
and halo traffic at every chip count.

Two shape invariants are asserted (the acceptance criteria of the scale-out
change, and the signature of edge-cut partitioning):

* ``max(per-chip local cycles)`` is monotonically **non-increasing** in the
  chip count — partitions only shrink;
* ``halo_bytes`` is monotonically **non-decreasing** — the cut only grows.

``chips=1`` short-circuits to the plain single-chip path, so the first row
of each curve doubles as the unpartitioned baseline.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.graph import Graph, power_law_graph
from repro.plan import lower
from repro.sim import GNNIEExecutor
from repro.scaleout import execute_scaleout
from repro.sparse import generate_sparse_features

CHIP_COUNTS = (1, 2, 4, 8, 16)


def _synthetic_graph() -> Graph:
    """A 2000-vertex power-law graph with PPI-like feature width."""
    num_vertices = 2000
    adjacency = power_law_graph(num_vertices, 12_000, exponent=2.1, seed=17)
    features = generate_sparse_features(num_vertices, 50, 0.4, seed=17)
    rng = np.random.default_rng(17)
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=rng.integers(8, size=num_vertices),
        name="synthetic-2k",
        num_label_classes=8,
    )


def _scaling_curve(graph: Graph, family: str) -> list[dict]:
    backend = GNNIEExecutor()
    plan = lower(family, graph)
    rows = []
    for chips in CHIP_COUNTS:
        result = execute_scaleout(backend, plan, graph, None, chips=chips)
        local = getattr(result, "chip_local_cycles", (result.total_cycles,))
        rows.append(
            {
                "workload": f"{graph.name}/{family}",
                "chips": chips,
                "cycles": int(result.total_cycles),
                "max_chip_local_cycles": int(max(local)),
                "communication_cycles": int(result.communication_cycles),
                "halo_vertices": int(getattr(result, "halo_vertices", 0)),
                "halo_bytes": int(getattr(result, "halo_bytes", 0)),
                "chip_imbalance": round(float(getattr(result, "chip_imbalance", 1.0)), 4),
            }
        )
    return rows


def _assert_scaling_shape(rows: list[dict]) -> None:
    for previous, current in zip(rows, rows[1:]):
        assert current["max_chip_local_cycles"] <= previous["max_chip_local_cycles"], (
            previous,
            current,
        )
        assert current["halo_bytes"] >= previous["halo_bytes"], (previous, current)


def test_scaleout_scaling(datasets, record):
    curves = []
    curves.extend(_scaling_curve(datasets["reddit"], "gcn"))
    curves.extend(_scaling_curve(_synthetic_graph(), "gcn"))

    for workload in {row["workload"] for row in curves}:
        _assert_scaling_shape([row for row in curves if row["workload"] == workload])

    # The single-chip rows exchange nothing; every multi-chip row pays halo.
    for row in curves:
        if row["chips"] == 1:
            assert row["halo_bytes"] == 0 and row["communication_cycles"] == 0
        else:
            assert row["halo_bytes"] > 0 and row["communication_cycles"] > 0

    record(
        "scaleout_scaling",
        format_table(curves, title="Scale-out scaling, 1 -> 16 chips (edge-cut, chunk)"),
        data=curves,
    )
