"""Graph-pure pricing memos, stored on the graph they describe.

The sweep prices thousands of near-identical plans that differ only in
their :class:`~repro.hw.config.AcceleratorConfig`.  A
:class:`GraphPricingContext` memoizes, per graph:

* config-independent precompute: resolved adjacency handles (sampled
  adjacencies), per-block nonzero counts, exact RLC sizes, undirected edge
  indexes and multi-chip partitions;
* cache-policy simulations and priced phases, under self-describing keys
  that :class:`~repro.sim.gnnie_executor.GNNIEExecutor` builds from the
  plan's adjacency handle plus every config knob and width the value
  depends on.

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

from repro.cache.controller import UndirectedEdgeIndex
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.models.graphsage import NeighborSampler
from repro.plan.ir import AdjacencyRef
from repro.sparse.feature_matrix import block_nonzero_counts
from repro.sparse.rlc import rlc_compressed_bits

__all__ = ["GraphPricingContext", "pricing_context"]


class GraphPricingContext:
    """Pricing memos for one dataset graph.

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
        #: block_size -> (V, num_blocks) nonzero counts of the input features.
        self._blocks: dict[int, np.ndarray] = {}
        #: value_bits -> exact RLC-compressed size of the input features.
        self._rlc_bits: dict[int, int] = {}
        #: Nonzero count of the input feature matrix (baseline workloads).
        self._input_nonzeros: int | None = None
        #: Adjacency handle -> shared undirected edge index.
        self._edge_indexes: dict[AdjacencyRef, UndirectedEdgeIndex] = {}
        #: Priced-phase memo.  Keys are self-describing tuples built by the
        #: executor from *every* config knob the phase depends on, so the
        #: memo stays a pure function of (graph, key); values are pristine
        #: copies (phase results are mutated by the overlap pass, so the
        #: executor copies on both store and hit).
        self.phase_memo: dict[tuple, object] = {}
        #: Cache-policy simulation memo, keyed by the executor's cache key
        #: (adjacency handle plus buffer knobs) and the priming width (the
        #: feature width the simulation is sized for), so every plan that
        #: primes an adjacency at the same width under the same buffer
        #: knobs shares one run.
        self.cache_results: dict[tuple, object] = {}
        #: (chips, method) -> partitioned multi-chip workload (see
        #: :func:`repro.scaleout.partition_workload`).  Partitioning is a
        #: pure function of graph content and the key, so a config batch
        #: sweeping many designs at one chip count partitions the graph
        #: exactly once.
        self.partitions: dict[tuple, object] = {}

    def adjacency(self, ref: AdjacencyRef) -> CSRGraph:
        """Materialize an adjacency handle of this graph (memoized).

        The neighbor sampler is deterministic (seeded by the vertex count),
        so a sampled handle resolves to the same subgraph on every call.
        """
        graph = self._require_graph()
        if ref.kind == "full":
            return graph.adjacency
        if ref.kind != "sampled":
            raise KeyError(f"unknown adjacency handle {ref!r}")
        sample_size = ref.sample_size or 25
        if sample_size not in self._sampled:
            sampler = NeighborSampler(seed=graph.num_vertices)
            sampled_edges = sampler.sample_edges(graph.adjacency, sample_size)
            self._sampled[sample_size] = CSRGraph.from_edge_list(
                sampled_edges, num_vertices=graph.num_vertices, symmetric=True
            )
        return self._sampled[sample_size]

    def input_blocks(self, block_size: int) -> np.ndarray:
        """Per-(vertex, block) nonzero counts of the input feature matrix."""
        if block_size not in self._blocks:
            graph = self._require_graph()
            self._blocks[block_size] = block_nonzero_counts(graph.features, block_size)
        return self._blocks[block_size]

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

    def edge_index(self, ref: AdjacencyRef) -> UndirectedEdgeIndex:
        """Shared undirected edge index for the degree-aware cache policy."""
        if ref not in self._edge_indexes:
            self._edge_indexes[ref] = UndirectedEdgeIndex(self.adjacency(ref))
        return self._edge_indexes[ref]

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
