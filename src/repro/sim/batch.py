"""Graph-pure pricing memos, stored on the graph they describe.

The sweep prices thousands of near-identical plans that differ only in
their :class:`~repro.hw.config.AcceleratorConfig`.  A
:class:`GraphPricingContext` memoizes, per graph:

* config-independent precompute: resolved adjacency handles (sampled
  adjacencies), the input features' block profiles (per-position nonzero
  sums and the histogram of per-block nonzero counts), exact RLC sizes,
  multi-chip partitions and the baseline platforms' per-plan workloads;
* cache-policy simulations and priced phases, keyed by
  :class:`~repro.sim.gnnie_executor.GNNIEExecutor` on the op's widths and
  the frozen view of the config and the executor's table that its stage
  reads (:func:`~repro.hw.config.pricing_view`), all the stage ever sees.

A context belongs to one graph, and an
:class:`~repro.plan.ir.AdjacencyRef` names one adjacency of that graph, so
the handle alone keys every per-adjacency memo.

Every entry is a pure function of (graph, key), so sharing one context
across executors, families, configs and calls cannot change a row byte.
The context lives on the graph (:attr:`repro.graph.graph.Graph.pricing`)
and dies with it; it is not pickled, so a worker process rebuilds it on
demand.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.mapping.binning import BlockProfile
from repro.models.graphsage import NeighborSampler
from repro.plan.ir import AdjacencyRef, InferencePlan
from repro.sparse.feature_matrix import block_nonzero_counts
from repro.sparse.rlc import rlc_compressed_bits

__all__ = ["GraphPricingContext", "pricing_context"]


class GraphPricingContext:
    """Pricing memos for one dataset graph.

    It holds the resolved adjacency handles, the input features' block
    profiles, nonzero count and RLC sizes, the baseline workloads, the
    cache-policy simulations, the priced phases and the multi-chip
    partitions.  A cache simulation reads nothing but its adjacency, so no
    per-graph index is kept for it.

    Everything memoized here is deterministic given the graph content and
    the key (the neighbor sampler is seeded by the vertex count, exactly as
    the executor always seeded it), so sharing a context across executors,
    families and configs preserves byte-identical results.
    """

    def __init__(self, graph: Graph) -> None:
        #: Weak, because the graph holds this context: no reference cycle.
        self._graph_ref = weakref.ref(graph)
        #: sample_size -> sampled CSR adjacency (GraphSAGE plans).
        self._sampled: dict[int, CSRGraph] = {}
        #: block_size -> block profile of the input features.
        self._profiles: dict[int, BlockProfile] = {}
        #: value_bits -> exact RLC-compressed size of the input features.
        self._rlc_bits: dict[int, int] = {}
        #: Nonzero count of the input feature matrix (baseline workloads).
        self._input_nonzeros: int | None = None
        #: plan -> frozen :class:`~repro.baselines.workload.WorkloadEstimate`
        #: from :func:`~repro.baselines.workload.workload_from_plan`.  Plans
        #: hash by content, so equal plans share one derivation.
        self.workloads: dict[InferencePlan, object] = {}
        #: Priced-phase memo: frozen phase results, keyed by the op's widths
        #: and the stage's view (a Weighting key ends in a ``WeightingKnobs``,
        #: an Aggregation key in an ``AggregationKnobs``; both hold the table).
        self.phase_memo: dict[tuple, object] = {}
        #: Cache-policy simulation memo, keyed by (adjacency handle,
        #: ``CacheKnobs``, priming width), so every plan that primes an
        #: adjacency at the same width under the same cache knobs (and value
        #: and index widths) shares one run.
        self.cache_results: dict[tuple, object] = {}
        #: (chips, method) -> ``(partition, chip graphs)`` from
        #: :func:`repro.scaleout.chip_subgraphs`: one pass over the edges
        #: built every chip's induced CSR, and a chip owning one contiguous
        #: id range views this graph's feature rows rather than copying
        #: them.  Partitioning is a pure function of graph content and the
        #: key, so a config batch sweeping many designs at one chip count
        #: partitions the graph exactly once.
        self.partitions: dict[tuple, object] = {}

    def adjacency(self, ref: AdjacencyRef) -> CSRGraph:
        """Materialize an adjacency handle of this graph (memoized).

        The neighbor sampler is deterministic (seeded by the vertex count),
        so a sampled handle resolves to the same subgraph on every call.  A
        sampled handle must name a positive sample size; none is assumed.
        """
        graph = self._require_graph()
        if ref.kind == "full":
            return graph.adjacency
        if ref.kind != "sampled":
            raise KeyError(f"unknown adjacency handle {ref!r}")
        sample_size = ref.sample_size
        if sample_size is None or sample_size <= 0:
            raise KeyError(f"sampled adjacency handle {ref!r} needs a positive sample size")
        if sample_size not in self._sampled:
            sampler = NeighborSampler(seed=graph.num_vertices)
            sampled_edges = sampler.sample_edges(graph.adjacency, sample_size)
            self._sampled[sample_size] = CSRGraph.from_edge_list(
                sampled_edges, num_vertices=graph.num_vertices, symmetric=True
            )
        return self._sampled[sample_size]

    def input_profile(self, block_size: int) -> BlockProfile:
        """Block profile of the input feature matrix at ``block_size``."""
        if block_size not in self._profiles:
            graph = self._require_graph()
            self._profiles[block_size] = BlockProfile.from_counts(
                block_nonzero_counts(graph.features, block_size)
            )
        return self._profiles[block_size]

    def input_nonzeros(self) -> int:
        """Nonzero count of the input feature matrix."""
        if self._input_nonzeros is None:
            graph = self._require_graph()
            self._input_nonzeros = int(np.count_nonzero(graph.features))
        return self._input_nonzeros

    def input_rlc_bits(self, value_bits: int) -> int:
        """Exact RLC-compressed size of the input feature matrix, in bits."""
        if value_bits not in self._rlc_bits:
            graph = self._require_graph()
            self._rlc_bits[value_bits] = rlc_compressed_bits(
                graph.features, value_bits=value_bits
            )
        return self._rlc_bits[value_bits]

    def _require_graph(self) -> Graph:
        graph = self._graph_ref()
        if graph is None:  # pragma: no cover - context outliving its graph
            raise RuntimeError("pricing context used after its graph was collected")
        return graph


def pricing_context(graph: Graph) -> GraphPricingContext:
    """The graph's :class:`GraphPricingContext` (created on first use)."""
    context = graph.pricing
    if not isinstance(context, GraphPricingContext):
        context = graph.pricing = GraphPricingContext(graph)
    return context
