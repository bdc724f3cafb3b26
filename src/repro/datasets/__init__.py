"""Benchmark dataset registry (Table II) and synthetic builders."""

from repro.datasets.registry import DATASET_SPECS, DatasetSpec, dataset_names, dataset_spec
from repro.datasets.synthetic import build_dataset, tiny_dataset

__all__ = [
    "DATASET_SPECS",
    "DatasetSpec",
    "dataset_spec",
    "dataset_names",
    "build_dataset",
    "tiny_dataset",
]
