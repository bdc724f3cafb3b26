"""AWB-GCN baseline cost model [Geng et al., MICRO 2020].

AWB-GCN treats GCN inference as two chained sparse-dense matrix
multiplications on a 4096-PE array (Intel D5005 FPGA, ~330 MHz) with three
rounds of runtime workload autotuning (distribution smoothing, remote
switching, row remapping).  The paper's comparison points (Section VII,
Fig. 13):

* AWB-GCN exploits sparsity and balances load well (high PE utilization),
  but its SpMM formulation is graph-agnostic: the adjacency matrix is
  streamed from off-chip repeatedly, with no degree-aware reuse,
* the runtime rebalancing rounds cost inter-PE communication,
* its zero-skipping targets ~75% sparsity and is less effective on the
  ultra-sparse (>98%) input feature layer,
* it implements GCNs only.

GNNIE achieves an average 2.1× speedup over it while using 3.4× fewer MACs
(1216 vs 4096).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import BYTES_PER_VALUE, PlatformModel
from repro.baselines.workload import WorkloadEstimate
from repro.graph.graph import Graph
from repro.hw.config import FIT, entry

__all__ = ["AWB_GCN_TABLE", "AWBGCNModel", "AWBGCNTable"]


@dataclass(frozen=True, slots=True)
class AWBGCNTable:
    """Every number the AWB-GCN cost model reads, with its source."""

    frequency_hz: float = entry(330e6, "AWB-GCN: 330 MHz on an Intel D5005 FPGA")
    num_macs: int = entry(4096, "AWB-GCN: 4,096 PEs")
    #: Utilization after runtime rebalancing on moderately sparse matrices.
    utilization: float = entry(0.85, FIT)
    #: Utilization on the ultra-sparse input layer (zero skipping tuned for
    #: ~75% sparsity loses efficiency beyond that).
    input_layer_utilization: float = entry(0.5, FIT)
    #: Rebalancing/communication overhead as a fraction of compute time.
    rebalancing_overhead: float = entry(0.12, FIT)
    #: Off-chip bandwidth of the FPGA board (DDR4).
    dram_bandwidth: float = entry(77e9, FIT)
    #: Bytes of adjacency data streamed per aggregation pass (CSR index +
    #: value per edge).
    adjacency_bytes_per_edge: float = entry(8.0, FIT)
    #: Output features per adjacency pass: the adjacency is streamed once
    #: per tile of this width.
    tile_width: int = entry(16, FIT)
    #: Fraction of the shorter of the compute and memory times that their
    #: overlap leaves exposed.
    overlap_exposure: float = entry(0.15, FIT)
    average_power_watts: float = entry(35.0, FIT)


AWB_GCN_TABLE = AWBGCNTable()


class AWBGCNModel(PlatformModel):
    """SpMM-chain model of AWB-GCN (GCN only)."""

    name = "AWB-GCN"
    supported_families = ("gcn",)
    table = AWB_GCN_TABLE

    def latency_seconds(self, graph: Graph, workload: WorkloadEstimate) -> float:
        table = self.table
        compute_cycles = 0.0
        for layer in workload.layers:
            utilization = (
                table.input_layer_utilization if layer.layer_index == 0 else table.utilization
            )
            weighting_cycles = layer.sparse_weighting_macs / (table.num_macs * utilization)
            aggregation_cycles = layer.aggregation_ops_weighting_first / (
                table.num_macs * table.utilization
            )
            compute_cycles += weighting_cycles + aggregation_cycles
        compute_seconds = compute_cycles * (1.0 + table.rebalancing_overhead) / table.frequency_hz
        # Graph-agnostic SpMM: the adjacency is streamed from DRAM once per
        # output-feature tile of layer 0, and that count is charged once for
        # the whole inference; later layers add no adjacency passes.
        tiles = max(1, workload.layers[0].out_features // table.tile_width)
        adjacency_bytes = graph.num_edges * table.adjacency_bytes_per_edge * tiles
        feature_bytes = BYTES_PER_VALUE * workload.dram_bytes
        memory_seconds = (adjacency_bytes + feature_bytes) / table.dram_bandwidth
        return max(compute_seconds, memory_seconds) + table.overlap_exposure * min(
            compute_seconds, memory_seconds
        )
