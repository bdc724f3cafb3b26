"""PyG-CPU baseline cost model (Intel Xeon Gold 6132 + PyTorch Geometric).

The paper's CPU baseline runs the PyG implementations of the five GNNs on a
14-core Xeon Gold 6132 at 2.6 GHz with 768 GB of DDR4.  Its performance is
bounded by four effects that the cost model captures:

* dense GEMM throughput for Weighting (the CPU does not skip the ~99% zero
  input features),
* scatter/gather-dominated Aggregation, which runs orders of magnitude below
  peak FLOPS because of random memory access and framework dispatch,
* fixed per-operator framework overhead (PyTorch op dispatch, Python glue),
  which dominates on the small citation graphs and is the main reason the
  measured GNNIE speedups over PyG-CPU reach 10³–10⁵×,
* pregenerated-random-number neighbor sampling for GraphSAGE, charged per
  sampled neighbor.

The fitted entries of :data:`PYG_CPU_TABLE` are representative of published
PyG CPU measurements on these datasets (tens of milliseconds for a 2-layer
GCN on Cora); the benchmarks check speedup *shapes*, not exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import BYTES_PER_VALUE, FLOPS_PER_MAC, PlatformModel
from repro.baselines.workload import WorkloadEstimate
from repro.graph.graph import Graph
from repro.hw.config import FIT, entry

__all__ = ["PYG_CPU_TABLE", "PyGCPUModel", "PyGCPUTable"]


@dataclass(frozen=True, slots=True)
class PyGCPUTable:
    """Every number the PyG-CPU cost model reads, with its source."""

    #: Peak fp32 throughput.
    peak_flops: float = entry(
        1.16e12,
        "Xeon Gold 6132: 14 cores x 2.6 GHz x 32 FLOP/cycle (AVX-512 FMA) "
        "= 1.1648e12, rounded",
    )
    dense_gemm_efficiency: float = entry(0.45, FIT)
    #: Aggregation (scatter_add / index_select) efficiency relative to peak:
    #: PyG's CPU scatter kernels are latency bound and run at a few GFLOP/s.
    aggregation_efficiency: float = entry(0.004, FIT)
    #: Sustained memory bandwidth (six DDR4-2666 channels).
    memory_bandwidth: float = entry(100e9, FIT)
    #: Fixed overhead per PyTorch operator invocation.
    op_dispatch_seconds: float = entry(50e-6, FIT)
    #: Framework operators issued per layer for each GNN family.
    ops_per_layer: int = entry(30, FIT)
    #: Extra operators per layer for a GAT's attention.
    gat_ops_per_layer: int = entry(15, FIT)
    #: Extra per-sampled-neighbor cost of GraphSAGE sampling.
    sampling_seconds_per_edge: float = entry(0.4e-6, FIT)
    #: Per-attention-edge softmax/scatter overhead for GATs.
    attention_seconds_per_op: float = entry(2.0e-12, FIT)
    #: Average package power while running PyG inference.
    average_power_watts: float = entry(150.0, FIT)


PYG_CPU_TABLE = PyGCPUTable()


class PyGCPUModel(PlatformModel):
    """Roofline + framework-overhead model of PyG on a Xeon Gold 6132."""

    name = "PyG-CPU"
    table = PYG_CPU_TABLE

    def latency_seconds(self, graph: Graph, workload: WorkloadEstimate) -> float:
        table = self.table
        # Dense Weighting GEMMs: the CPU multiplies full dense matrices.
        gemm_flops = FLOPS_PER_MAC * workload.dense_weighting_macs
        gemm_seconds = gemm_flops / (table.peak_flops * table.dense_gemm_efficiency)

        # Aggregation: scatter-add over edges, latency/bandwidth bound.
        aggregation_flops = FLOPS_PER_MAC * workload.aggregation_ops
        aggregation_seconds = aggregation_flops / (
            table.peak_flops * table.aggregation_efficiency
        )

        # Memory traffic floor (features + weights + intermediates).
        bytes_moved = BYTES_PER_VALUE * workload.dram_bytes
        memory_seconds = bytes_moved / table.memory_bandwidth

        # Framework dispatch: ops per layer, more for attention models.
        num_layers = len(workload.layers)
        ops = table.ops_per_layer * num_layers
        if workload.family == "gat":
            ops += table.gat_ops_per_layer * num_layers
        dispatch_seconds = ops * table.op_dispatch_seconds

        attention_seconds = workload.attention_ops * table.attention_seconds_per_op
        sampling_seconds = workload.sampling_ops * table.sampling_seconds_per_edge

        compute_seconds = max(gemm_seconds + aggregation_seconds, memory_seconds)
        return compute_seconds + dispatch_seconds + attention_seconds + sampling_seconds
