"""Baseline platform cost models: PyG-CPU, PyG-GPU, HyGCN, AWB-GCN, EnGN.

Each platform is a plan executor over the shared
:class:`~repro.plan.ir.InferencePlan` IR and has an entry in the backend
table, so ``repro.plan.executor("hygcn")`` (etc.) resolves here.
"""

from repro.baselines.awb_gcn import AWBGCNModel
from repro.baselines.cpu import PyGCPUModel
from repro.baselines.engn import EnGNModel
from repro.baselines.gpu import PyGGPUModel
from repro.baselines.hygcn import HyGCNModel
from repro.baselines.platform import PlatformModel, PlatformResult
from repro.baselines.workload import LayerCosts, WorkloadEstimate, workload_from_plan

__all__ = [
    "PlatformModel",
    "PlatformResult",
    "PyGCPUModel",
    "PyGGPUModel",
    "HyGCNModel",
    "AWBGCNModel",
    "EnGNModel",
    "LayerCosts",
    "WorkloadEstimate",
    "workload_from_plan",
]
