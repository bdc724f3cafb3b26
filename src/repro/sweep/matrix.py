"""Scenario-matrix expansion: (dataset × family × backend × config) → cells.

The paper's evaluation is a matrix — five datasets (Table II) × five GNN
families (Table III) × GNNIE plus five baseline platforms (Figs. 12–15) —
and its design choices come from sweeping accelerator configurations over
that matrix (Section VIII-A).  :class:`ScenarioMatrix` expands those axes
into an ordered list of :class:`SweepCell`\\ s, each one fully serializable:
a cell can be hashed (for the resumable result store), pickled (for the
process-pool workers) and rebuilt into the exact same simulation.

Determinism contract
--------------------
* Cell order is the deterministic axis-major product (datasets, then
  families, then backends, then configs) — independent of execution order.
* Every cell carries an explicit dataset seed.  When the caller does not
  pin one, :func:`derive_seed` derives it from the matrix base seed and the
  dataset name via SHA-256, so all cells of one dataset share one synthetic
  graph (speedups stay apples-to-apples) and re-running the same matrix
  anywhere reproduces the same graphs.
* :meth:`SweepCell.key` is a content hash over the canonical JSON of the
  cell spec (its chip count and every ``AcceleratorConfig`` field), so two
  sweeps agree on what "the same cell" is across processes, machines and
  runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from repro.hw.config import AcceleratorConfig

__all__ = [
    "DatasetCase",
    "SweepCell",
    "ScenarioMatrix",
    "derive_seed",
    "config_to_dict",
    "config_from_dict",
]

#: The one backend whose cost model reads the configuration and can price
#: multi-chip plans, so the only one crossed with the config and chip axes.
_CONFIG_BACKEND = "gnnie"


def derive_seed(base_seed: int, dataset: str) -> int:
    """Deterministic per-dataset seed: stable across processes and runs."""
    digest = hashlib.sha256(f"{base_seed}:{dataset.lower()}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@lru_cache(maxsize=256)
def _config_dict(config: AcceleratorConfig) -> dict:
    """Memoized ``asdict`` — a sweep serializes the same few configs for
    thousands of cells, and ``dataclasses.asdict`` recursion dominates."""
    return asdict(config)


def config_to_dict(config: AcceleratorConfig) -> dict:
    """JSON-serializable mapping of every configuration field.

    Returns a fresh top-level dict per call (values are immutable
    scalars/tuples), so callers may add or drop keys without corrupting the
    memo.
    """
    return dict(_config_dict(config))


def config_from_dict(data: dict) -> AcceleratorConfig:
    """Rebuild an :class:`AcceleratorConfig` from a JSON round-trip.

    Every list became a tuple on the way out (the config's sequence fields
    are all tuples), so the restoration needs no per-field knowledge and
    keeps working when new tuple fields are added.
    """
    return AcceleratorConfig(
        **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in data.items()
        }
    )


@dataclass(frozen=True)
class DatasetCase:
    """One dataset axis entry: a registry name plus scale/seed overrides.

    ``scale=None`` uses the registry's per-dataset default (full scale for
    the citation graphs, the documented stand-in scales for PPI/Reddit).
    ``seed=None`` lets the matrix derive a deterministic per-dataset seed.
    """

    name: str
    scale: float | None = None
    seed: int | None = None


@dataclass(frozen=True)
class SweepCell:
    """One fully-specified scenario: everything a worker needs to run it."""

    dataset: str
    scale: float | None
    seed: int
    family: str
    backend: str
    config: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    #: Number of simulated chips the workload is partitioned across
    #: (``repro.scaleout``).
    chips: int = 1

    def spec(self) -> dict:
        """Canonical JSON-serializable description (hashed by :meth:`key`)."""
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "family": self.family,
            "backend": self.backend,
            "config": config_to_dict(self.config),
            "chips": self.chips,
        }

    def key(self) -> str:
        """Content hash identifying this cell in the result store.

        Computed once per cell instance (the runner hashes each cell several
        times: resume lookup, pending bookkeeping, row emission); the cell is
        frozen, so the cached value can never go stale.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            canonical = json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(canonical.encode()).hexdigest()[:16]
            object.__setattr__(self, "_key", cached)
        return cached

    def describe(self) -> str:
        suffix = f" x{self.chips}" if self.chips != 1 else ""
        return f"{self.dataset}/{self.family}/{self.backend}[{self.config.name}]{suffix}"


@dataclass(frozen=True)
class ScenarioMatrix:
    """The four sweep axes plus the base seed cells derive theirs from.

    The configuration axis is crossed only with GNNIE, the one executor
    whose cost model reads the configuration; the baseline platforms model
    fixed published silicon and ignore ``config``, so they are swept once —
    with ``configs[0]`` — instead of producing N byte-identical rows.
    """

    datasets: tuple[DatasetCase, ...]
    families: tuple[str, ...]
    backends: tuple[str, ...] = ("gnnie",)
    configs: tuple[AcceleratorConfig, ...] = (AcceleratorConfig(),)
    seed: int = 0
    #: Chip-count axis (``repro.scaleout``).  Gated exactly like the
    #: configuration axis: only GNNIE, whose cost model can price
    #: multi-chip plans, is crossed with it; every other backend is swept
    #: single-chip.
    chips: tuple[int, ...] = (1,)

    @classmethod
    def build(
        cls,
        datasets: Iterable[str | DatasetCase],
        families: Iterable[str],
        *,
        backends: Iterable[str] = ("gnnie",),
        configs: Sequence[AcceleratorConfig] | None = None,
        scale: float | None = None,
        seed: int = 0,
        chips: Iterable[int] = (1,),
    ) -> "ScenarioMatrix":
        """Normalize axis inputs (names become :class:`DatasetCase` entries).

        ``scale`` overrides the registry default for every plain-name
        dataset entry; explicit :class:`DatasetCase` entries keep their own.
        """
        cases = tuple(
            case
            if isinstance(case, DatasetCase)
            else DatasetCase(name=case.lower(), scale=scale)
            for case in datasets
        )
        return cls(
            datasets=cases,
            families=tuple(family.lower() for family in families),
            backends=tuple(backend.lower() for backend in backends),
            configs=tuple(configs) if configs else (AcceleratorConfig(),),
            seed=seed,
            chips=tuple(int(count) for count in chips),
        )

    def _configs_for(self, backend: str) -> tuple[AcceleratorConfig, ...]:
        return self.configs if backend == _CONFIG_BACKEND else self.configs[:1]

    def _chips_for(self, backend: str) -> tuple[int, ...]:
        return self.chips if backend == _CONFIG_BACKEND else (1,)

    def cells(self) -> list[SweepCell]:
        """Axis-major expansion (dataset, family, backend, config, chips)."""
        expanded: list[SweepCell] = []
        for case in self.datasets:
            seed = case.seed if case.seed is not None else derive_seed(self.seed, case.name)
            for family in self.families:
                for backend in self.backends:
                    for config in self._configs_for(backend):
                        for chips in self._chips_for(backend):
                            expanded.append(
                                SweepCell(
                                    dataset=case.name,
                                    scale=case.scale,
                                    seed=seed,
                                    family=family,
                                    backend=backend,
                                    config=config,
                                    chips=chips,
                                )
                            )
        return expanded

    def __len__(self) -> int:
        cells_per_pair = sum(
            len(self._configs_for(backend)) * len(self._chips_for(backend))
            for backend in self.backends
        )
        return len(self.datasets) * len(self.families) * cells_per_pair

