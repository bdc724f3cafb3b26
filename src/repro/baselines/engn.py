"""EnGN baseline cost model [Liang et al., IEEE TC 2020].

EnGN is the third accelerator the paper discusses (Section VII): a 128×16
ring-edge-reduce (RER) PE array at 1 GHz where each PE broadcasts its partial
results to the other PEs of its column during Aggregation.  The paper's
critique, which this model charges explicitly:

* the RER ring adds one hop of inter-PE communication per aggregation step,
  an energy/latency overhead that grows with the (sparse) neighbor count,
* the edge reordering EnGN performs to reduce that communication is an
  expensive preprocessing step repeated as cached edges are replaced,
* its dimension-aware stage reordering picks the cheaper of the two phase
  orders per layer, so it does benefit from weighting-first on these
  workloads (modeled via the same workload estimate GNNIE uses).

EnGN supports the common message-passing GNNs but, like HyGCN, does not
implement the softmax-over-neighborhood that GATs need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import BYTES_PER_VALUE, PlatformModel
from repro.baselines.workload import WorkloadEstimate
from repro.graph.graph import Graph
from repro.hw.config import FIT, entry

__all__ = ["ENGN_TABLE", "EnGNModel", "EnGNTable"]


@dataclass(frozen=True, slots=True)
class EnGNTable:
    """Every number the EnGN cost model reads, with its source."""

    frequency_hz: float = entry(1.0e9, "EnGN: 1 GHz clock")
    num_pes: int = entry(2048, "EnGN: 128x16 RER PE array = 2,048 PEs")
    pe_utilization: float = entry(0.7, FIT)
    #: Extra cycles per aggregation operation spent on the RER ring hop.
    ring_overhead_factor: float = entry(0.35, FIT)
    #: Edge-reordering preprocessing cost, charged per edge per layer.
    reorder_seconds_per_edge: float = entry(2.0e-9, FIT)
    dram_bandwidth: float = entry(256e9, FIT)
    average_power_watts: float = entry(8.5, FIT)


ENGN_TABLE = EnGNTable()


class EnGNModel(PlatformModel):
    """Ring-edge-reduce PE-array model of EnGN."""

    name = "EnGN"
    supported_families = ("gcn", "graphsage", "ginconv")
    table = ENGN_TABLE

    def latency_seconds(self, graph: Graph, workload: WorkloadEstimate) -> float:
        table = self.table
        effective_pes = table.num_pes * table.pe_utilization
        weighting_cycles = workload.sparse_weighting_macs / effective_pes
        aggregation_cycles = (
            workload.aggregation_ops * (1.0 + table.ring_overhead_factor) / effective_pes
        )
        compute_seconds = (weighting_cycles + aggregation_cycles) / table.frequency_hz
        reorder_seconds = (
            table.reorder_seconds_per_edge * graph.num_edges * len(workload.layers)
        )
        memory_seconds = BYTES_PER_VALUE * workload.dram_bytes / table.dram_bandwidth
        return max(compute_seconds, memory_seconds) + reorder_seconds
