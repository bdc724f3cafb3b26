"""Multi-chip scale-out execution: partition, halo-exchange, combine.

One GNNIE instance tops out at a single CPE array; this module times a graph
inference partitioned across ``N`` simulated chips.  The accounting follows
the hybrid-execution model of the DynaNDE/MoNDE prefiller simulator
(SNIPPETS.md §3): chips compute their local partitions in parallel, then
synchronize on the slowest inter-chip halo exchange, so each layer costs

    ``MAX(per-chip local cycles) + MAX(per-chip communication cycles)``

and the whole inference additionally pays ``MAX(per-chip preprocessing)``.

Partitioning is *edge-cut* (every vertex owned by exactly one chip, via
:func:`repro.graph.partition.partition_graph`, which builds every chip's
CSR in one pass over the edges); each chip's compute graph is the subgraph
induced by its owned vertices, and the features of its *halo* — the
distinct remote neighbors of owned vertices — arrive over the chip-to-chip
link as a :class:`~repro.plan.ir.HaloExchangeOp` priced by the executor
against the link model of its table.

Modeling notes
--------------
* The induced-subgraph compute model drops cut edges from the local
  aggregation workload (their operands arrive via the halo but the reduction
  over them is not re-priced), so per-chip compute is a lower bound that
  shrinks monotonically with ``N`` while halo traffic grows — the
  scaling-curve shape the benchmark pins.
* The halo size is derived from the *full* adjacency; families aggregating
  over a sampled adjacency (GraphSAGE) exchange the full halo, a conservative
  approximation.
* ``chips == 1`` short-circuits to the backend's plain ``execute`` — rows are
  byte-identical to the unpartitioned path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.verifier import verify_plan
from repro.graph.graph import Graph
from repro.graph.partition import GraphPartition, check_partition_args, partition_graph
from repro.hw.config import AcceleratorConfig, GNNIETable
from repro.obs.tracer import NULL_TRACER
from repro.plan.ir import AggregationOp, HaloExchangeOp, InferencePlan, PlanLayer
from repro.sim.batch import pricing_context
from repro.sim.results import InferenceResult, ScaleOutResult

__all__ = [
    "PartitionedWorkload",
    "chip_subgraphs",
    "execute_scaleout",
    "partition_workload",
]


@dataclass(frozen=True)
class PartitionedWorkload:
    """A graph inference split across ``partition.num_parts`` chips.

    ``chip_graphs[i]`` is the subgraph induced by chip *i*'s owned vertices
    (parent dataset name and label count preserved, so per-dataset buffer
    sizing and lowering shapes match the unpartitioned run) and
    ``chip_plans[i]`` is the parent plan with chip *i*'s
    :class:`~repro.plan.ir.HaloExchangeOp` spliced in before each layer's
    aggregation.
    """

    partition: GraphPartition
    chip_graphs: tuple[Graph, ...]
    chip_plans: tuple[InferencePlan, ...]

    @property
    def num_chips(self) -> int:
        return self.partition.num_parts

    def halo_bytes(self, table: GNNIETable) -> int:
        """Inter-chip traffic of all chips and layers, in bytes of ``table``."""
        return sum(
            op.halo_vertices * op.features * table.bytes_per_value
            for plan in self.chip_plans
            for layer in plan.layers
            for op in layer.ops
            if isinstance(op, HaloExchangeOp)
        )


def chip_subgraphs(
    graph: Graph, chips: int, *, method: str = "chunk"
) -> tuple[GraphPartition, tuple[Graph, ...]]:
    """Partition a graph and wrap each part's induced CSR as a chip graph.

    The adjacencies come from the partition's single pass over the parent's
    edges.  A part that is one contiguous id range (every ``chunk`` part)
    views the parent's feature rows read-only instead of copying them;
    scattered ``balanced`` parts gather a copy.

    Memoized on the graph's :class:`~repro.sim.batch.GraphPricingContext`
    (keyed by ``(chips, method)``), so a config batch sweeping many designs
    at one chip count partitions the graph exactly once — and the chip
    subgraphs keep their identity, which keeps *their* pricing contexts
    (cache simulations, priced phases) shared too.
    """
    context = pricing_context(graph)
    key = (chips, method)
    cached = context.partitions.get(key)
    if cached is not None:
        return cached
    partition = partition_graph(graph.adjacency, chips, method=method)
    chip_graphs = []
    for part, adjacency in zip(partition.parts, partition.adjacencies):
        if part.size and part[-1] - part[0] == part.size - 1:
            features = graph.features[part[0] : part[-1] + 1]
            features.flags.writeable = False
        else:
            features = graph.features[part]
        chip_graphs.append(
            Graph(
                adjacency=adjacency,
                features=features,
                labels=None,
                name=graph.name,
                num_label_classes=graph.num_label_classes,
            )
        )
    entry = (partition, tuple(chip_graphs))
    context.partitions[key] = entry
    return entry


def _chip_plan(plan: InferencePlan, halo_vertices: int, chips: int) -> InferencePlan:
    """Splice one chip's halo exchange into every aggregating layer.

    The exchange precedes the first :class:`AggregationOp` of each layer and
    runs at that op's reduction width; layers without an aggregation (e.g.
    DiffPool's dense coarsening) exchange nothing.
    """
    layers = []
    for layer in plan.layers:
        ops = list(layer.ops)
        for position, op in enumerate(ops):
            if isinstance(op, AggregationOp):
                ops.insert(
                    position,
                    HaloExchangeOp(
                        halo_vertices=halo_vertices,
                        features=op.width,
                        chips=chips,
                    ),
                )
                break
        layers.append(
            PlanLayer(
                index=layer.index,
                in_features=layer.in_features,
                out_features=layer.out_features,
                ops=tuple(ops),
            )
        )
    return InferencePlan(
        family=plan.family,
        in_features=plan.in_features,
        out_features=plan.out_features,
        layers=tuple(layers),
        global_ops=plan.global_ops,
    )


def partition_workload(
    graph: Graph, plan: InferencePlan, chips: int, *, method: str = "chunk"
) -> PartitionedWorkload:
    """Lower a (graph, plan) pair onto ``chips`` simulated GNNIE chips."""
    partition, chip_graphs = chip_subgraphs(graph, chips, method=method)
    chip_plans = tuple(
        _chip_plan(plan, partition.halo_counts[chip], chips)
        for chip in range(chips)
    )
    return PartitionedWorkload(
        partition=partition, chip_graphs=chip_graphs, chip_plans=chip_plans
    )


def execute_scaleout(
    backend,
    plan: InferencePlan,
    graph: Graph,
    config: AcceleratorConfig | None = None,
    *,
    chips: int,
    method: str = "chunk",
) -> InferenceResult:
    """Execute a plan across ``chips`` simulated chips and combine the results.

    ``chips`` and ``method`` are checked first, as
    :func:`~repro.graph.partition.partition_graph` checks them, so a bad
    argument raises whatever the chip count.  ``chips == 1`` then returns
    the backend's plain ``execute`` result unchanged (byte-identity with the
    unpartitioned path); otherwise every chip runs its local plan on its
    induced subgraph and the fleet is combined with per-layer
    ``MAX(local) + MAX(communication)`` timing, summed work counters, and
    summed energy.  The backend must advertise ``supports_scaleout`` (the
    GNNIE executor does) and hold the ``table`` its chips price on.  On the
    backend's tracer, a ``partition`` span (no modeled cycles) records the
    chip count, method, cut edges, halo vertices and whether the partition
    was a memo hit, followed by one ``chip`` span per non-empty chip; a
    backend without a tracer runs the same calls on
    :data:`~repro.obs.tracer.NULL_TRACER`.
    """
    check_partition_args(chips, method)
    if chips == 1:
        return backend.execute(plan, graph, config)
    # Verify the parent plan before splicing halo ops; each chip plan is
    # then verified (memoized) by the backend's own execute.
    verify_plan(plan)
    if not getattr(backend, "supports_scaleout", False):
        raise ValueError(
            f"backend {getattr(backend, 'name', backend)!r} does not support "
            "multi-chip scale-out"
        )
    tracer = getattr(backend, "tracer", NULL_TRACER)
    memoized = (chips, method) in pricing_context(graph).partitions
    with tracer.span(
        "partition",
        category="partition",
        chips=chips,
        method=method,
        partition_memo="memo_hit" if memoized else "run",
    ) as span:
        workload = partition_workload(graph, plan, chips, method=method)
        span.set(
            cut_edges=workload.partition.cut_edges,
            halo_vertices=workload.partition.total_halo_vertices(),
        )
    cfg = (config or backend.config).resolve_input_buffer(graph.name)
    chip_results: list[InferenceResult | None] = []
    for chip in range(chips):
        chip_graph = workload.chip_graphs[chip]
        if chip_graph.num_vertices == 0:
            # An empty partition contributes no cycles, work or energy.
            chip_results.append(None)
            continue
        with tracer.span(
            "chip",
            category="chip",
            chip=chip,
            chips=chips,
            vertices=chip_graph.num_vertices,
            halo_vertices=workload.partition.halo_counts[chip],
        ):
            chip_results.append(backend.execute(workload.chip_plans[chip], chip_graph, cfg))
    return _combine(workload, chip_results, method, backend.table)


def _combine(
    workload: PartitionedWorkload,
    chip_results: list[InferenceResult | None],
    method: str,
    table: GNNIETable,
) -> ScaleOutResult:
    """Fold per-chip results into one fleet-level :class:`ScaleOutResult`.

    Per layer, the critical-path chip (largest local cycles, lowest index on
    ties) contributes the layer's weighting/aggregation attribution, so the
    reported phase breakdown sums exactly to the combined cycle count.
    """
    live = [result for result in chip_results if result is not None]
    if not live:
        raise ValueError("cannot combine an all-empty partition")
    num_layers = len(live[0].layers)
    combined_cycles = 0
    communication_cycles = 0
    weighting_cycles = 0
    aggregation_cycles = 0
    for index in range(num_layers):
        layers = [result.layers[index] for result in live]
        critical = max(layers, key=lambda layer: layer.local_cycles)
        combined_cycles += critical.local_cycles
        weighting_cycles += critical.weighting.total_cycles
        aggregation_cycles += critical.local_cycles - critical.weighting.total_cycles
        layer_comm = max(layer.communication_cycles for layer in layers)
        combined_cycles += layer_comm
        communication_cycles += layer_comm
    preprocessing = max(result.global_preprocessing_cycles for result in live)
    combined_cycles += preprocessing
    energy = live[0].energy
    for result in live[1:]:
        energy = energy + result.energy
    reference = live[0]
    return ScaleOutResult(
        dataset=reference.dataset,
        model=reference.model,
        config_name=reference.config_name,
        frequency_hz=reference.frequency_hz,
        layers=[],
        energy=energy,
        global_preprocessing_cycles=preprocessing,
        num_chips=workload.num_chips,
        partition_method=method,
        chip_cycles=tuple(
            result.total_cycles if result is not None else 0
            for result in chip_results
        ),
        chip_local_cycles=tuple(
            result.total_cycles - sum(layer.communication_cycles for layer in result.layers)
            if result is not None
            else 0
            for result in chip_results
        ),
        halo_vertices=workload.partition.total_halo_vertices(),
        halo_bytes=workload.halo_bytes(table),
        combined_cycles=combined_cycles,
        combined_communication_cycles=communication_cycles,
        combined_macs=sum(result.total_mac_operations for result in live),
        combined_dram_bytes=sum(result.total_dram_bytes for result in live),
        combined_weighting_cycles=weighting_cycles,
        combined_aggregation_cycles=aggregation_cycles,
    )
