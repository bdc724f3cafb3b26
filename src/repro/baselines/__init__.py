"""Baseline platform cost models: PyG-CPU, PyG-GPU, HyGCN, AWB-GCN, EnGN.

Each platform is a plan executor over the shared
:class:`~repro.plan.ir.InferencePlan` IR and is registered with the backend
registry, so ``repro.plan.executor("hygcn")`` (etc.) resolves here.
"""

from repro.baselines.awb_gcn import AWBGCNModel
from repro.baselines.cpu import PyGCPUModel
from repro.baselines.engn import EnGNModel
from repro.baselines.gpu import PyGGPUModel
from repro.baselines.hygcn import HyGCNModel
from repro.baselines.platform import PlatformModel, PlatformResult
from repro.baselines.workload import LayerCosts, WorkloadEstimate, workload_from_plan
from repro.plan.executor import register_executor

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

register_executor("pyg-cpu", PyGCPUModel)
register_executor("pyg-gpu", PyGGPUModel)
register_executor("hygcn", HyGCNModel)
register_executor("awb-gcn", AWBGCNModel)
register_executor("engn", EnGNModel)
