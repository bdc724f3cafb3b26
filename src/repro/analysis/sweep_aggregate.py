"""Store-backed aggregation over scenario-sweep result rows.

A finished sweep leaves one JSONL row per (dataset, family, backend,
config) cell in its :class:`~repro.sweep.store.ResultStore`.  This module
turns those rows back into the repo's analysis vocabulary without re-running
any simulation:

* :func:`design_points_from_rows` / :func:`pareto_rows` — rebuild
  :class:`~repro.sim.design_space.DesignPoint` objects from GNNIE rows and
  reuse :func:`~repro.sim.design_space.pareto_front` for the latency/area
  front of a configuration sweep,
* :func:`speedup_rows` / :func:`backend_geomeans` — GNNIE-relative speedups
  per (dataset, family) and the per-backend geometric means the paper
  headlines (Figs. 12–13), via :func:`~repro.analysis.speedup.geometric_mean`.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable

from repro.analysis.speedup import geometric_mean
from repro.hw.config import AcceleratorConfig
from repro.sim.design_space import DesignPoint, pareto_front
from repro.sweep.matrix import config_from_dict
from repro.sweep.store import ResultStore, is_failed_row

__all__ = [
    "load_rows",
    "design_points_from_rows",
    "pareto_rows",
    "speedup_rows",
    "beta_rows",
    "backend_geomeans",
    "geomean_table_rows",
]


def _config_key(row: dict) -> str:
    """Content key of a row's serialized configuration.

    Reference rows used to be keyed by ``config_name``, so two distinct
    configurations sharing a display name (two ``replace()``-built variants
    both named "GNNIE") silently collapsed to whichever row came last; the
    canonical JSON of the full config dict cannot collide that way.
    """
    return json.dumps(row["config"], sort_keys=True, separators=(",", ":"))


def _axis_key(row: dict) -> tuple:
    """The full pairing key of a row: every axis that changes the workload.

    A GNNIE reference and a baseline row are comparable only when they ran
    the *same* simulation input — dataset name alone is not enough once a
    store holds several scales, seeds or chip counts of one dataset.  Keying
    on (dataset, scale, seed, chips, family, config) makes cross-scale or
    cross-seed pairing (the last-loaded-wins bug) impossible.
    """
    return (
        row["dataset"],
        row.get("scale"),
        row.get("seed"),
        row["chips"],
        row["family"],
        _config_key(row),
    )


def load_rows(store: ResultStore | str | os.PathLike) -> list[dict]:
    """All rows of a result store (accepts a store object or its path)."""
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    return list(store.rows())


def _gnnie_rows(rows: Iterable[dict]) -> list[dict]:
    return [
        row
        for row in rows
        if row["backend"] == "gnnie"
        and not is_failed_row(row)
        and row["supported"]
        and row["metrics"] is not None
    ]


def design_points_from_rows(rows: Iterable[dict]) -> list[DesignPoint]:
    """Rebuild design points from the GNNIE rows of a sweep.

    The row's serialized configuration round-trips back into an
    :class:`~repro.hw.config.AcceleratorConfig`, so downstream consumers
    (β studies, Pareto extraction) see the same objects a live
    :func:`~repro.sim.design_space.sweep_designs` call would produce.
    """
    points: list[DesignPoint] = []
    for row in _gnnie_rows(rows):
        config = config_from_dict(row["config"])
        metrics = row["metrics"]
        points.append(
            DesignPoint(
                name=config.name,
                config=config,
                total_macs=metrics["total_macs"],
                area_mm2=metrics["area_mm2"],
                cycles=metrics["cycles"],
                latency_seconds=metrics["latency_seconds"],
                energy_joules=metrics["energy_joules"],
            )
        )
    return points


def pareto_rows(rows: Iterable[dict]) -> list[DesignPoint]:
    """Latency/area Pareto-optimal designs among a sweep's GNNIE rows."""
    return pareto_front(design_points_from_rows(rows))


def beta_rows(
    rows: Iterable[dict], *, baseline: AcceleratorConfig | str = "Design A"
) -> list[dict]:
    """β (speedup gain per added MAC, Eq. 9) of every GNNIE design in a sweep.

    ``baseline`` selects the reference design — an
    :class:`~repro.hw.config.AcceleratorConfig` matched by content, or a
    design name matched against ``DesignPoint.name``.  Designs that add no
    MACs over the baseline (including the baseline itself) carry a null β,
    mirroring :meth:`~repro.sim.design_space.DesignPoint.beta_versus`.
    Entries are sorted by β, best first (nulls last).
    """
    points = design_points_from_rows(rows)
    if isinstance(baseline, str):
        references = [point for point in points if point.name == baseline]
    else:
        references = [point for point in points if point.config == baseline]
    if not references:
        raise ValueError(f"no GNNIE row matches the β baseline {baseline!r}")
    reference = references[0]
    entries = []
    for point in points:
        beta = point.beta_versus(reference)
        entries.append(
            {
                "name": point.name,
                "total_macs": point.total_macs,
                "cycles": point.cycles,
                "area_mm2": point.area_mm2,
                "beta": None if math.isnan(beta) else beta,
            }
        )
    entries.sort(key=lambda entry: (entry["beta"] is None, -(entry["beta"] or 0.0)))
    return entries


def speedup_rows(rows: Iterable[dict]) -> list[dict]:
    """GNNIE-relative speedup and energy-gain per workload and backend.

    For every (dataset, scale, seed, chips, family, config) with a GNNIE
    row, each supported baseline row becomes one entry: ``speedup`` is
    baseline latency over GNNIE latency, ``energy_gain`` the same ratio for
    energy — the quantities plotted in Figs. 12, 13 and 15.  Pairing uses
    the full :func:`_axis_key`, so a multi-scale/multi-seed store compares
    each baseline row against the GNNIE row of *its own* workload instead
    of whichever scale's reference loaded last; failed rows never pair.
    """
    rows = list(rows)
    gnnie = {_axis_key(row): row["metrics"] for row in _gnnie_rows(rows)}
    entries: list[dict] = []
    for row in rows:
        if (
            row["backend"] == "gnnie"
            or is_failed_row(row)
            or not row["supported"]
            or row["metrics"] is None
        ):
            continue
        reference = gnnie.get(_axis_key(row))
        if reference is None or reference["latency_seconds"] <= 0:
            continue
        metrics = row["metrics"]
        entries.append(
            {
                "dataset": row["dataset"],
                "scale": row.get("scale"),
                "seed": row.get("seed"),
                "family": row["family"],
                "backend": row["backend"],
                "speedup": metrics["latency_seconds"] / reference["latency_seconds"],
                "energy_gain": (
                    metrics["energy_joules"] / reference["energy_joules"]
                    if reference["energy_joules"] > 0
                    else float("inf")
                ),
            }
        )
    return entries


def backend_geomeans(rows: Iterable[dict]) -> dict[str, dict[str, float]]:
    """Per-backend geometric-mean speedup/energy-gain across all cells.

    Failed rows (``status="failed"``) are excluded from every ratio but
    surfaced per backend as a ``failed`` count, so a partially-broken sweep
    reads as "geomean over N cells, M failed" instead of silently shrinking
    its population.  A backend whose rows *all* failed still appears (zero
    cells, zero geomeans) rather than vanishing from the table.
    """
    rows = list(rows)
    failed_counts: dict[str, int] = {}
    for row in rows:
        if is_failed_row(row):
            backend = row["backend"]
            failed_counts[backend] = failed_counts.get(backend, 0) + 1
    entries = speedup_rows(rows)
    backends = sorted({entry["backend"] for entry in entries} | set(failed_counts))
    return {
        backend: {
            "geomean_speedup": geometric_mean(
                [e["speedup"] for e in entries if e["backend"] == backend]
            ),
            "geomean_energy_gain": geometric_mean(
                [e["energy_gain"] for e in entries if e["backend"] == backend]
            ),
            "cells": sum(1 for e in entries if e["backend"] == backend),
            "failed": failed_counts.get(backend, 0),
        }
        for backend in backends
    }


def geomean_table_rows(rows: Iterable[dict]) -> list[dict]:
    """The headline geomean summary as printable table rows (CLI, benchmarks)."""
    return [
        {
            "backend": backend,
            "cells": stats["cells"],
            "failed": stats["failed"],
            "gnnie_geomean_speedup": round(stats["geomean_speedup"], 2),
            "gnnie_geomean_energy_gain": round(stats["geomean_energy_gain"], 2),
        }
        for backend, stats in backend_geomeans(rows).items()
    ]
