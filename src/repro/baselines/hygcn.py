"""HyGCN baseline cost model [Yan et al., HPCA 2020].

HyGCN couples an *Aggregation engine* (32 SIMD16 cores operating on graph
data) with a *Combination engine* (8 systolic arrays, 32×128 MACs) in a
pipeline.  The paper (Sections I and VII) attributes GNNIE's ~35× average
advantage to four structural differences, all of which the model charges:

* HyGCN aggregates first — (Ã H) W — so Aggregation runs at the input
  feature width (e.g. 1433 for Cora) instead of the hidden width (128),
* the Combination engine does not exploit input-feature sparsity (dense
  MACs),
* shard-based windowing has limited efficacy on highly sparse adjacency
  matrices: a substantial fraction of neighbor fetches still go to DRAM
  randomly, and the power-law distribution is not addressed,
* the two engines are imbalanced, so the pipeline stalls (modeled as a
  pipeline efficiency factor on the max of the two stage times).

HyGCN does not implement the softmax-over-neighborhood needed by GATs and is
therefore only compared on GCN, GraphSAGE and GINConv (Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import BYTES_PER_VALUE, PlatformModel
from repro.baselines.workload import WorkloadEstimate
from repro.graph.graph import Graph
from repro.hw.config import FIT, entry

__all__ = ["HYGCN_TABLE", "HyGCNModel", "HyGCNTable"]


@dataclass(frozen=True, slots=True)
class HyGCNTable:
    """Every number the HyGCN cost model reads, with its source."""

    frequency_hz: float = entry(1.0e9, "HyGCN: 1 GHz clock")
    #: Combination engine, dense (no zero skipping).
    combination_macs: int = entry(
        4096, "HyGCN: Combination engine of 8 systolic arrays, 128x32 = 4,096 MACs"
    )
    combination_utilization: float = entry(0.75, FIT)
    aggregation_lanes: int = entry(512, "HyGCN: Aggregation engine of 32 SIMD16 cores = 512 lanes")
    aggregation_utilization: float = entry(0.8, FIT)
    #: Fraction of neighbor accesses that miss the sliding-window shard and
    #: go to DRAM with random-access cost.
    shard_miss_fraction: float = entry(0.35, FIT)
    dram_bandwidth: float = entry(256e9, "HyGCN: 256 GB/s HBM")
    random_access_penalty_seconds: float = entry(60e-9, FIT)
    #: Pipeline efficiency capturing Aggregation/Combination imbalance.
    pipeline_efficiency: float = entry(0.7, FIT)
    average_power_watts: float = entry(6.7, "HyGCN: 6.7 W")


HYGCN_TABLE = HyGCNTable()


class HyGCNModel(PlatformModel):
    """Dual-engine pipeline model of HyGCN."""

    name = "HyGCN"
    supported_families = ("gcn", "graphsage", "ginconv")
    table = HYGCN_TABLE

    def latency_seconds(self, graph: Graph, workload: WorkloadEstimate) -> float:
        table = self.table
        # Combination: dense weighting MACs (no input-sparsity exploitation).
        combination_cycles = workload.dense_weighting_macs / (
            table.combination_macs * table.combination_utilization
        )
        # Aggregation runs before Combination, at the input feature width.
        aggregation_cycles = workload.aggregation_ops_aggregation_first / (
            table.aggregation_lanes * table.aggregation_utilization
        )
        stage_seconds = (
            max(combination_cycles, aggregation_cycles)
            / table.frequency_hz
            / table.pipeline_efficiency
        )
        # Random DRAM penalty for shard-window misses during Aggregation.
        missed_edges = table.shard_miss_fraction * graph.num_edges
        random_seconds = missed_edges * table.random_access_penalty_seconds
        # Streaming traffic floor.
        stream_seconds = BYTES_PER_VALUE * workload.dram_bytes / table.dram_bandwidth
        return stage_seconds + random_seconds + stream_seconds
