"""PyG-GPU baseline cost model (NVIDIA Tesla V100S + PyTorch Geometric).

The GPU baseline is far stronger than the CPU one — dense GEMMs run near
cuBLAS peak and scatter-based aggregation benefits from HBM2 bandwidth — but
it still loses to GNNIE because of

* kernel-launch and framework overhead that dominates small graphs (the
  citation datasets finish their useful work in microseconds),
* low efficiency of irregular scatter/gather aggregation kernels,
* host-side neighbor sampling for GraphSAGE (the paper's measured 2427×
  average GNNIE speedup for GraphSAGE on GPU is driven by this),
* no exploitation of the ~99% input-feature sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import BYTES_PER_VALUE, FLOPS_PER_MAC, PlatformModel
from repro.baselines.workload import WorkloadEstimate
from repro.graph.graph import Graph
from repro.hw.config import FIT, entry

__all__ = ["PYG_GPU_TABLE", "PyGGPUModel", "PyGGPUTable"]


@dataclass(frozen=True, slots=True)
class PyGGPUTable:
    """Every number the PyG-GPU cost model reads, with its source."""

    peak_flops: float = entry(16.4e12, "Tesla V100S: 16.4 TFLOP/s peak fp32")
    dense_gemm_efficiency: float = entry(0.55, FIT)
    #: Scatter/gather aggregation efficiency relative to peak FLOPS.
    aggregation_efficiency: float = entry(0.02, FIT)
    hbm2_bandwidth: float = entry(1134e9, "Tesla V100S: 1,134 GB/s HBM2")
    #: Realistic fraction of the HBM2 bandwidth a PyG kernel sustains.
    memory_utilization: float = entry(0.65, FIT)
    #: Kernel launch + framework overhead per operator.
    kernel_launch_seconds: float = entry(12e-6, FIT)
    kernels_per_layer: int = entry(30, FIT)
    #: Extra kernels per layer for a GAT's attention.
    gat_kernels_per_layer: int = entry(20, FIT)
    #: Host-side neighbor sampling for GraphSAGE (per sampled neighbor).
    sampling_seconds_per_edge: float = entry(0.8e-6, FIT)
    attention_seconds_per_op: float = entry(0.15e-12, FIT)
    average_power_watts: float = entry(250.0, "Tesla V100S: 250 W board power")


PYG_GPU_TABLE = PyGGPUTable()


class PyGGPUModel(PlatformModel):
    """Roofline + launch-overhead model of PyG on a Tesla V100S."""

    name = "PyG-GPU"
    table = PYG_GPU_TABLE

    def latency_seconds(self, graph: Graph, workload: WorkloadEstimate) -> float:
        table = self.table
        gemm_seconds = FLOPS_PER_MAC * workload.dense_weighting_macs / (
            table.peak_flops * table.dense_gemm_efficiency
        )
        aggregation_seconds = FLOPS_PER_MAC * workload.aggregation_ops / (
            table.peak_flops * table.aggregation_efficiency
        )
        memory_seconds = BYTES_PER_VALUE * workload.dram_bytes / (
            table.memory_utilization * table.hbm2_bandwidth
        )

        num_layers = len(workload.layers)
        kernels = table.kernels_per_layer * num_layers
        if workload.family == "gat":
            kernels += table.gat_kernels_per_layer * num_layers
        launch_seconds = kernels * table.kernel_launch_seconds

        attention_seconds = workload.attention_ops * table.attention_seconds_per_op
        sampling_seconds = workload.sampling_ops * table.sampling_seconds_per_edge

        compute_seconds = max(gemm_seconds + aggregation_seconds, memory_seconds)
        return compute_seconds + launch_seconds + attention_seconds + sampling_seconds
