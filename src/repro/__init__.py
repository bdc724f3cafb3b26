"""repro — a Python reproduction of GNNIE (DAC 2022).

GNNIE is a GNN inference accelerator with a unified Weighting/Aggregation PE
array, Flexible-MAC load balancing, and graph-specific degree-aware caching.
This package provides:

* ``repro.graph`` / ``repro.sparse`` / ``repro.datasets`` — graph and sparse
  feature substrates plus synthetic stand-ins for the Table II datasets,
* ``repro.models`` — functional NumPy references for GCN, GAT, GraphSAGE,
  GINConv and DiffPool,
* ``repro.hw`` / ``repro.mapping`` / ``repro.cache`` — the accelerator
  component models, the Weighting/Aggregation mapping policies and the
  caching policy,
* ``repro.plan`` — the backend-neutral phase-op IR every family lowers to
  and every backend executes,
* ``repro.sim`` — the GNNIE plan executor
  (:class:`~repro.sim.GNNIEExecutor`) and its cycle/energy models,
* ``repro.baselines`` — PyG-CPU, PyG-GPU, HyGCN, AWB-GCN and EnGN cost
  models, re-expressed as plan executors,
* ``repro.sweep`` — the parallel scenario-matrix runner with its resumable
  result store (``python -m repro sweep``),
* ``repro.analysis`` — helpers behind every reproduced figure and table.

Quickstart::

    from repro import GNNIEExecutor, build_dataset
    from repro.plan import lower

    graph = build_dataset("cora")
    result = GNNIEExecutor().execute(lower("gcn", graph), graph)
    print(result.summary())
"""

from repro.datasets import build_dataset, dataset_names, tiny_dataset
from repro.hw import AcceleratorConfig, design_preset
from repro.models import build_model
from repro.sim import GNNIEExecutor, InferenceResult

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "build_dataset",
    "dataset_names",
    "tiny_dataset",
    "AcceleratorConfig",
    "design_preset",
    "build_model",
    "GNNIEExecutor",
    "InferenceResult",
]
