"""GNNIE plan executor: per-op handlers over the phase-op IR.

:class:`GNNIEExecutor` runs an :class:`~repro.plan.ir.InferencePlan` on a
dataset graph under one accelerator configuration, producing the
cycle/traffic/energy :class:`~repro.sim.results.InferenceResult` behind the
headline comparisons (Figs. 12–15, Table IV) and the ablations
(Figs. 16–18).  Each op type has one handler; the executor knows nothing
about GNN families — family structure is fully encoded in the plan by the
lowering rules in :mod:`repro.models.lowering`.

Modeling notes
--------------
* Input-layer Weighting uses the dataset's *actual* sparse feature matrix,
  so the rabbit/turtle imbalance and the zero-skipping benefit are driven by
  real per-block nonzero counts.  Later layers' features (post-ReLU
  activations) are modeled with the density the op carries
  (:data:`~repro.plan.ir.HIDDEN_DENSITY`), matching the paper's observation
  that the RLC decoder is bypassed after layer 1.
* ``sampled`` adjacency handles are resolved once per execution with the
  pregenerated-stream neighbor sampler; the cache policy then runs on the
  sampled subgraph.
* The cache-policy simulation is sized by the plan's first
  :class:`~repro.plan.ir.AggregationOp` over each adjacency (its *priming
  width*) and shared by every later aggregation op over that adjacency.
  That is an approximation: the layer feature length changes the
  per-vertex record size, and hence the buffer's vertex capacity.  It
  stands until the simulation is keyed per width (ROADMAP direction 2).
* Simulations and priced phases are memoized on the graph's pricing
  context.  Each memoized stage receives a frozen view of the config and
  the executor's table (:func:`~repro.hw.config.pricing_view`) that holds
  exactly what the stage reads, and that view is the stage's memo key, so
  no config field or table entry can be read yet left out of a key.  The
  executor holds no memo of its own, so a result is a pure function of
  plan, graph, config and table: it never depends on what ran before.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.graph.graph import Graph
from repro.hw import energy
from repro.hw.config import (
    GNNIE_TABLE,
    AcceleratorConfig,
    AggregationKnobs,
    CacheKnobs,
    GNNIETable,
    WeightingKnobs,
    array_macs,
    pricing_view,
)
from repro.mapping.attention import schedule_attention
from repro.mapping.binning import BlockProfile
from repro.mapping.weighting import schedule_weighting
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.check.verifier import verify_plan
from repro.plan.ir import (
    HIDDEN_DENSITY,
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    HaloExchangeOp,
    InferencePlan,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
)
from repro.sim.aggregation_sim import aggregation_phase_from_cache, run_cache_simulation
from repro.sim.batch import GraphPricingContext, pricing_context
from repro.sim.results import InferenceResult, LayerResult, PhaseResult
from repro.sim.weighting_sim import weighting_phase_from_schedule

__all__ = ["GNNIEExecutor"]


def _phase_energy(table: GNNIETable, phase: PhaseResult) -> energy.EnergyBreakdown:
    """Dynamic energy of one phase (pJ); static energy is a whole-run
    quantity, added once per inference."""
    return energy.EnergyBreakdown(
        mac_pj=energy.mac_energy(table, phase.mac_operations),
        sfu_pj=energy.sfu_energy(table, phase.sfu_operations),
        input_buffer_pj=energy.buffer_energy(table, "input", phase.input_buffer_bytes),
        output_buffer_pj=energy.buffer_energy(table, "output", phase.output_buffer_bytes),
        weight_buffer_pj=energy.buffer_energy(table, "weight", phase.weight_buffer_bytes),
        dram_input_pj=energy.dram_energy(table, phase.dram_input_stream_bytes),
        dram_weight_pj=energy.dram_energy(table, phase.dram_weight_stream_bytes),
        dram_output_pj=energy.dram_energy(table, phase.dram_output_stream_bytes),
    )


def _priming_widths(plan: InferencePlan) -> dict[AdjacencyRef, int]:
    """Each adjacency handle's priming width: the width of the plan's first
    aggregation op over it, which sizes that adjacency's cache simulation."""
    widths: dict[AdjacencyRef, int] = {}
    for stage in plan.layers:
        for op in stage.ops:
            if isinstance(op, AggregationOp):
                widths.setdefault(op.adjacency, op.width)
    return widths


class GNNIEExecutor:
    """Executes inference plans on the GNNIE performance/energy model."""

    name = "gnnie"
    #: This backend can price multi-chip plans (it handles
    #: :class:`~repro.plan.ir.HaloExchangeOp` with its table's link model),
    #: so ``repro.scaleout`` and the sweep worker may partition workloads
    #: across several instances of it.
    supports_scaleout = True
    #: The fixed design every price reads.  A variant, as for a baseline
    #: platform, sets ``table`` to ``dataclasses.replace(executor.table, ...)``;
    #: it is not a tuning knob, so sweeps, the tuner and cell keys keep it.
    table: GNNIETable = GNNIE_TABLE

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        #: Observability hooks; the defaults are shared no-ops, so an
        #: un-instrumented executor's numbers (and goldens) are untouched.
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or NULL_METRICS

    # ------------------------------------------------------------------ #
    # Executor protocol
    # ------------------------------------------------------------------ #
    def execute(
        self,
        plan: InferencePlan,
        graph: Graph,
        config: AcceleratorConfig | None = None,
    ) -> InferenceResult:
        """Run one lowered inference on one dataset graph."""
        # Structural verification before any pricing; memoized per plan
        # content, so batch/sweep reruns cost one dict lookup.
        verify_plan(plan)
        # Auto-sizing sentinel only: an explicit input_buffer_bytes override
        # (e.g. a buffer-sweep cell) is simulated at the capacity it names.
        cfg = (config or self.config).resolve_input_buffer(graph.name)
        table = self.table
        tracer = self.tracer
        # Every memo (sampled adjacencies, block nonzero counts, RLC sizes,
        # cache simulations, priced phases) lives on the graph's pricing
        # context; see repro.sim.batch.
        context = pricing_context(graph)
        priming = _priming_widths(plan)
        with tracer.span(
            "inference",
            category="inference",
            dataset=graph.name,
            family=plan.family,
            config=cfg.name,
        ) as root:
            layers = []
            for stage in plan.layers:
                with tracer.span(
                    f"layer{stage.index}",
                    category="layer",
                    layer=stage.index,
                    in_features=stage.in_features,
                    out_features=stage.out_features,
                ) as layer_span:
                    layer = self._execute_layer(stage, graph, cfg, table, context, priming)
                layer_span.set(
                    cycles=layer.total_cycles,
                    mac_operations=sum(p.mac_operations for p in layer.phases()),
                    dram_bytes=sum(p.dram_bytes for p in layer.phases()),
                )
                layers.append(layer)
            with tracer.span(
                "preprocess:degree_binning", category="op", layer=-1
            ) as preprocess_span:
                preprocessing = self._global_preprocessing_cycles(plan, graph, cfg, table)
            preprocess_span.set(cycles=preprocessing)
            result = InferenceResult(
                dataset=graph.name,
                model=plan.family.upper(),
                config_name=cfg.name,
                frequency_hz=table.frequency_hz,
                layers=layers,
                global_preprocessing_cycles=preprocessing,
            )
            result.energy = self._energy(result, table)
            root.set(
                cycles=result.total_cycles,
                mac_operations=result.total_mac_operations,
                dram_bytes=result.total_dram_bytes,
                energy_pj=result.energy.total_pj,
                latency_s=result.latency_seconds,
            )
        return result

    def chip_area_mm2(self, config: AcceleratorConfig | None = None) -> float:
        return energy.chip_area_mm2(self.table, config or self.config)

    # ------------------------------------------------------------------ #
    # Layer construction
    # ------------------------------------------------------------------ #
    def _execute_layer(
        self,
        stage: PlanLayer,
        graph: Graph,
        cfg: AcceleratorConfig,
        table: GNNIETable,
        context: GraphPricingContext,
        priming: dict[AdjacencyRef, int],
    ) -> LayerResult:
        """Price one layer's ops, merge them per phase slot and apply the
        overlap rule; with tracing on, attribute the final layer to its ops."""
        tracer = self.tracer
        priced = []  # (phase slot, op span, op phase), in op order
        for op in stage.ops:
            if isinstance(op, SampleOp):
                with tracer.span("op:sample", category="op", layer=stage.index) as span:
                    context.adjacency(AdjacencyRef("sampled", op.sample_size))
                # Sampling is plan-resolution work, free on the modeled chip.
                span.set(cycles=0)
                continue
            if isinstance(op, WeightingOp):
                with tracer.span("op:weighting", category="op", layer=stage.index) as span:
                    phase = self._weighting_phase(
                        op, graph, pricing_view(WeightingKnobs, cfg, table), context, span
                    )
                slot = "weighting"
            elif isinstance(op, AttentionOp):
                with tracer.span("op:attention", category="op", layer=stage.index) as span:
                    phase = self._attention_phase(op, graph, cfg, table)
                slot = "attention"
            elif isinstance(op, AggregationOp):
                with tracer.span("op:aggregation", category="op", layer=stage.index) as span:
                    phase = self._aggregation_phase(
                        op,
                        pricing_view(CacheKnobs, cfg, table),
                        pricing_view(AggregationKnobs, cfg, table),
                        context,
                        priming[op.adjacency],
                        span,
                    )
                slot = "aggregation"
            elif isinstance(op, DenseMatmulOp):
                with tracer.span("op:dense_matmul", category="op", layer=stage.index) as span:
                    phase = self._dense_matmul_phase(op, graph, cfg, table)
                slot = "weighting"
            elif isinstance(op, HaloExchangeOp):
                with tracer.span(
                    "op:halo_exchange",
                    category="op",
                    layer=stage.index,
                    halo_vertices=op.halo_vertices,
                ) as span:
                    phase = self._halo_exchange_phase(op, table)
                slot = "communication"
            else:
                raise TypeError(f"GNNIE executor cannot handle op {op!r}")
            priced.append((slot, span, phase))
        # A layer may lower to several ops of one kind (e.g. an SGC-style
        # family with multiple propagation hops); their costs add up.
        slots: dict[str, PhaseResult] = {}
        for slot, _, phase in priced:
            slots[slot] = slots[slot].merge(phase) if slot in slots else phase
        layer = self._overlap_layer_memory(
            LayerResult(
                layer_index=stage.index,
                in_features=stage.in_features,
                out_features=stage.out_features,
                weighting=slots.get("weighting") or PhaseResult("weighting"),
                attention=slots.get("attention"),
                aggregation=slots.get("aggregation") or PhaseResult("aggregation"),
                communication=slots.get("communication"),
            )
        )
        if tracer.enabled:
            # Each op span carries its own busy cycles; the stall the overlap
            # rule left on a slot's final phase goes to the slot's last op
            # (the layer's last op when no op lowered to the slot), so each
            # slot's op spans sum to its final phase.
            last = {slot: span for slot, span, _ in priced}
            stalls = {}
            for slot in ("weighting", "attention", "aggregation", "communication"):
                phase = getattr(layer, slot)
                if phase is not None and phase.memory_stall_cycles:
                    target = last.get(slot, priced[-1][1])
                    stalls[target] = stalls.get(target, 0) + phase.memory_stall_cycles
            for _, span, phase in priced:
                span.set(
                    compute_cycles=phase.compute_cycles,
                    sfu_cycles=phase.sfu_cycles,
                    mac_operations=phase.mac_operations,
                    dram_bytes=phase.dram_bytes,
                    energy_pj=_phase_energy(table, phase).total_pj,
                    cycles=phase.compute_cycles
                    + phase.sfu_cycles
                    + phase.preprocessing_cycles
                    + stalls.get(span, 0),
                )
        return layer

    # ------------------------------------------------------------------ #
    # Per-op handlers
    # ------------------------------------------------------------------ #
    def _weighting_phase(
        self,
        op: WeightingOp,
        graph: Graph,
        knobs: WeightingKnobs,
        context: GraphPricingContext,
        span,
    ) -> PhaseResult:
        exact_input = op.is_input_layer and op.in_features == graph.feature_length
        density = HIDDEN_DENSITY if op.density is None else op.density
        # Keyed on the view, so a config batch varying, say, γ or buffer
        # sizes prices each distinct Weighting workload once.
        key = (exact_input, op.in_features, op.out_features, None if exact_input else density, knobs)
        cached = context.phase_memo.get(key)
        span.set(phase_memo="run" if cached is None else "memo_hit")
        if cached is not None:
            return cached
        block_size = -(-op.in_features // knobs.num_rows)
        if exact_input:
            # The input layer prices the dataset's actual sparse features:
            # the block profile and the exact RLC-compressed size are pure
            # functions of (graph, block size | value width), shared across
            # configs via the pricing context.
            profile = context.input_profile(block_size)
            input_bits = context.input_rlc_bits(8 * knobs.table.bytes_per_value)
        else:
            # Later layers: statistical block nonzeros at the modeled density,
            # and dense traffic (the RLC decoder is bypassed after layer 1).
            profile = BlockProfile.uniform(
                graph.num_vertices,
                -(-op.in_features // block_size),
                int(round(density * block_size)),
            )
            input_bits = graph.num_vertices * op.in_features * 8 * knobs.table.bytes_per_value
        schedule = schedule_weighting(profile, op.in_features, op.out_features, knobs)
        phase = context.phase_memo[key] = weighting_phase_from_schedule(
            schedule,
            graph.num_vertices,
            op.in_features,
            op.out_features,
            input_traffic_bits=input_bits,
            table=knobs.table,
        )
        return phase

    def _attention_phase(
        self, op: AttentionOp, graph: Graph, cfg: AcceleratorConfig, table: GNNIETable
    ) -> PhaseResult:
        schedule = schedule_attention(graph.num_vertices, op.out_features, cfg, table)
        return PhaseResult(
            name="attention",
            compute_cycles=schedule.compute_cycles,
            mac_operations=schedule.total_macs,
            dram_write_bytes=schedule.output_bytes,
            dram_output_stream_bytes=schedule.output_bytes,
            output_buffer_bytes=schedule.output_bytes,
        )

    def _aggregation_phase(
        self,
        op: AggregationOp,
        cache_knobs: CacheKnobs,
        knobs: AggregationKnobs,
        context: GraphPricingContext,
        priming_width: int,
        span,
    ) -> PhaseResult:
        # The priming width completes the simulation's key (see the
        # modeling notes).
        sim_key = (op.adjacency, cache_knobs, priming_width)
        adjacency = context.adjacency(op.adjacency)
        cache_result = context.cache_results.get(sim_key)
        if cache_result is not None:
            outcome = "memo_hit"
            self.metrics.counter("executor.cache_sim.memo_hits").inc()
        else:
            # Metrics are recorded only when the simulation actually runs;
            # memo hits re-use the numbers without double-counting events.
            outcome = "run"
            self.metrics.counter("executor.cache_sim.runs").inc()
            cache_result = run_cache_simulation(adjacency, cache_knobs, priming_width)
            context.cache_results[sim_key] = cache_result
        span.set(
            cache_sim=outcome,
            rounds=cache_result.num_rounds,
            iterations=cache_result.num_iterations,
            deadlocks=cache_result.deadlock_events,
            vertex_fetches=cache_result.vertex_fetches,
            refetch=cache_result.vertex_fetches / max(1, adjacency.num_vertices),
            alpha_writeback_bytes=cache_result.alpha_writeback_bytes,
        )
        # A phase is priced only after its simulation ran, so a priced-phase
        # hit is always a simulation memo hit too.
        key = (sim_key, op.width, op.weighted, knobs)
        cached = context.phase_memo.get(key)
        span.set(phase_memo="run" if cached is None else "memo_hit")
        if cached is not None:
            return cached
        phase = context.phase_memo[key] = aggregation_phase_from_cache(
            cache_result, adjacency, knobs, op.width, is_gat=op.weighted
        )
        return phase

    @staticmethod
    def _halo_exchange_phase(op: HaloExchangeOp, table: GNNIETable) -> PhaseResult:
        """Inter-chip boundary-feature transfer before aggregation.

        Cost model: one fixed link latency (synchronization + first flit)
        plus the serialized halo payload — ``halo_vertices × features``
        values at the datapath width — over the chip-to-chip link
        bandwidth.  A chip with an empty halo (nothing cut toward it) pays
        nothing.  The traffic is link traffic, not DRAM traffic, so it is
        deliberately absent from the DRAM/energy accounting.
        """
        if op.halo_vertices <= 0:
            return PhaseResult(name="communication")
        payload_bytes = op.halo_vertices * op.features * table.bytes_per_value
        link_bytes_per_cycle = table.link_bandwidth_bytes_per_s / table.frequency_hz
        cycles = table.link_latency_cycles + int(np.ceil(payload_bytes / link_bytes_per_cycle))
        return PhaseResult(name="communication", compute_cycles=cycles)

    def _dense_matmul_phase(
        self, op: DenseMatmulOp, graph: Graph, cfg: AcceleratorConfig, table: GNNIETable
    ) -> PhaseResult:
        """Graph-scaled dense products (DiffPool's Sᵀ A S and Sᵀ Z)."""
        macs = graph.num_edges * op.macs_per_edge + graph.num_vertices * op.macs_per_vertex
        compute_cycles = int(np.ceil(macs / array_macs(cfg, table)))
        softmax_ops = graph.num_vertices * op.softmax_ops_per_vertex
        output_bytes = op.output_values * table.bytes_per_value
        return PhaseResult(
            name="weighting",
            compute_cycles=compute_cycles,
            sfu_cycles=int(np.ceil(softmax_ops / (table.sfu_columns * cfg.num_rows))),
            mac_operations=int(macs),
            sfu_operations=int(softmax_ops),
            dram_write_bytes=int(output_bytes),
            dram_output_stream_bytes=int(output_bytes),
            output_buffer_bytes=int(output_bytes),
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _overlap_layer_memory(layer: LayerResult) -> LayerResult:
        """The layer with its exposed memory stall charged to Aggregation.

        The model's one memory-overlap rule.  The memory access scheduler
        prefetches every phase's streaming traffic (Weighting's first fill
        included) while any phase of the layer computes, so only the
        layer's streaming cycles beyond its busy cycles are exposed; they
        are added to Aggregation, where the traffic peaks, on top of the
        random-access stall (id-order caching) no prefetch hides.  Several
        aggregation ops in one layer (a multi-hop family) pool the same way.

        Span attribution follows the rule instead of restating it:
        :meth:`_execute_layer` charges each slot's final stall to that slot's
        last op span, so a rule that charges another phase needs no other
        change.
        """
        phases = layer.phases()
        busy = sum(p.compute_cycles + p.sfu_cycles + p.preprocessing_cycles for p in phases)
        exposed = max(0, sum(p.streaming_memory_cycles for p in phases) - busy)
        aggregation = layer.aggregation
        return replace(
            layer,
            aggregation=replace(
                aggregation, memory_stall_cycles=aggregation.memory_stall_cycles + exposed
            ),
        )

    def _global_preprocessing_cycles(
        self, plan: InferencePlan, graph: Graph, cfg: AcceleratorConfig, table: GNNIETable
    ) -> int:
        """Degree-based vertex reordering (binning), charged once per inference."""
        if not cfg.enable_degree_aware_caching:
            return 0
        cycles = 0
        for op in plan.global_ops:
            if isinstance(op, PreprocessOp) and op.kind == "degree_binning":
                cycles += int(
                    np.ceil(graph.num_vertices / table.degree_binning_ops_per_cycle)
                )
        return cycles

    @staticmethod
    def _energy(result: InferenceResult, table: GNNIETable) -> energy.EnergyBreakdown:
        breakdown = sum(
            (_phase_energy(table, phase) for layer in result.layers for phase in layer.phases()),
            energy.EnergyBreakdown(),
        )
        breakdown.static_pj = energy.static_energy(table, result.total_cycles)
        return breakdown
