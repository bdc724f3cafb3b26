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
  width*) and shared by every later aggregation op over that adjacency, as
  an approximation: the layer feature length changes the per-vertex record
  size (and hence the buffer's vertex capacity), but re-simulating per
  width would dominate runtime.  Simulations and priced phases are
  memoized on the graph's pricing context under (cache key, priming width),
  and the executor holds no memo of its own, so a result is a pure function
  of plan, graph and config: it never depends on what ran before.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.graph.graph import Graph
from repro.hw.config import AcceleratorConfig
from repro.hw.energy import AreaModel, EnergyBreakdown, EnergyModel
from repro.mapping.attention import schedule_attention
from repro.mapping.weighting import schedule_weighting
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.check.verifier import verify_plan
from repro.plan.executor import register_executor
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
from repro.sim.weighting_sim import simulate_weighting, weighting_phase_from_schedule

__all__ = ["GNNIEExecutor"]

#: Throughput of the host-side preprocessing (degree binning), ops/cycle.
_PREPROCESSING_OPS_PER_CYCLE = 8


def _weighting_knobs(cfg: AcceleratorConfig) -> tuple:
    """Every configuration field the Weighting phase result depends on.

    The schedule reads the array shape, the MAC allocation and the three
    balancing flags; the phase assembly additionally reads the value width
    and the DRAM bandwidth per cycle.  Keying the phase memo on exactly
    these knobs lets configs differing only in, say, γ or buffer sizing
    share one priced Weighting phase.
    """
    return (
        cfg.num_rows,
        cfg.num_cols,
        cfg.macs_per_group,
        cfg.rows_per_group,
        cfg.enable_flexible_mac,
        cfg.enable_zero_skipping,
        cfg.enable_load_redistribution,
        cfg.bytes_per_value,
        cfg.dram_bandwidth_bytes_per_s,
        cfg.frequency_hz,
    )


def _aggregation_knobs(cfg: AcceleratorConfig) -> tuple:
    """Every configuration field the Aggregation pricing depends on
    *besides* the cache-simulation key (which carries the buffer/γ/miss-path
    knobs already)."""
    return (
        cfg.num_rows,
        cfg.num_cols,
        cfg.macs_per_group,
        cfg.rows_per_group,
        cfg.enable_aggregation_load_balancing,
        cfg.bytes_per_value,
        cfg.dram_bandwidth_bytes_per_s,
        cfg.frequency_hz,
        cfg.output_buffer_bytes,
        cfg.enable_degree_aware_caching,
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
    #: :class:`~repro.plan.ir.HaloExchangeOp` and carries a link model on its
    #: config), so ``repro.scaleout`` and the sweep worker may partition
    #: workloads across several instances of it.
    supports_scaleout = True

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        *,
        energy_model: EnergyModel | None = None,
        area_model: AreaModel | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        self.energy_model = energy_model or EnergyModel()
        self.area_model = area_model or AreaModel()
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
        tracer = self.tracer
        # Every memo (sampled adjacencies, block nonzero counts, RLC sizes,
        # edge indexes, cache simulations, priced phases) lives on the
        # graph's pricing context; see repro.sim.batch.
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
            annotations = []  # (layer, layer span, {slot: [(op span, busy cycles)]})
            for stage in plan.layers:
                with tracer.span(
                    f"layer{stage.index}",
                    category="layer",
                    layer=stage.index,
                    in_features=stage.in_features,
                    out_features=stage.out_features,
                ) as layer_span:
                    layer, slots = self._execute_layer(stage, graph, cfg, context, priming)
                layers.append(layer)
                annotations.append((layer, layer_span, slots))
            for layer in layers:
                self._overlap_layer_memory(layer)
            with tracer.span(
                "preprocess:degree_binning", category="op", layer=-1
            ) as preprocess_span:
                preprocessing = self._global_preprocessing_cycles(plan, graph, cfg)
            result = InferenceResult(
                dataset=graph.name,
                model=plan.family.upper(),
                config_name=cfg.name,
                layers=layers,
                frequency_hz=cfg.frequency_hz,
                global_preprocessing_cycles=preprocessing,
            )
            result.energy = self._energy(result, cfg)
            if tracer.enabled:
                preprocess_span.set(cycles=preprocessing)
                self._annotate_spans(result, annotations, root)
        return result

    def chip_area_mm2(self, config: AcceleratorConfig | None = None) -> float:
        return self.area_model.chip_area_mm2(config or self.config)

    # ------------------------------------------------------------------ #
    # Layer construction
    # ------------------------------------------------------------------ #
    def _execute_layer(
        self,
        stage: PlanLayer,
        graph: Graph,
        cfg: AcceleratorConfig,
        context: GraphPricingContext,
        priming: dict[AdjacencyRef, int],
    ) -> tuple[LayerResult, dict[str, list]]:
        weighting: PhaseResult | None = None
        attention: PhaseResult | None = None
        aggregation: PhaseResult | None = None
        communication: PhaseResult | None = None
        tracer = self.tracer
        #: Per phase slot, the (span, pre-overlap busy cycles) of each op —
        #: the bookkeeping `_annotate_spans` needs to turn the post-overlap
        #: layer totals into exact per-op cycle attribution.
        slot_spans: dict[str, list] = {}

        def accumulate(slot: PhaseResult | None, phase: PhaseResult) -> PhaseResult:
            # A layer may lower to several ops of one kind (e.g. an SGC-style
            # family with multiple propagation hops); their costs add up.
            return phase if slot is None else slot.merge(phase)

        def note(span, slot: str, phase: PhaseResult) -> None:
            if not tracer.enabled:
                return
            span.set(
                compute_cycles=phase.compute_cycles,
                sfu_cycles=phase.sfu_cycles,
                mac_operations=phase.mac_operations,
                dram_bytes=phase.dram_bytes,
                energy_pj=self._phase_energy_pj(phase),
            )
            busy = phase.compute_cycles + phase.sfu_cycles + phase.preprocessing_cycles
            slot_spans.setdefault(slot, []).append((span, busy))

        for op in stage.ops:
            if isinstance(op, SampleOp):
                with tracer.span("op:sample", category="op", layer=stage.index) as span:
                    context.adjacency(AdjacencyRef("sampled", op.sample_size))
                # Sampling is plan-resolution work, free on the modeled chip.
                span.set(cycles=0)
            elif isinstance(op, WeightingOp):
                with tracer.span("op:weighting", category="op", layer=stage.index) as span:
                    phase = self._weighting_phase(op, graph, cfg, context)
                weighting = accumulate(weighting, phase)
                note(span, "weighting", phase)
            elif isinstance(op, AttentionOp):
                with tracer.span("op:attention", category="op", layer=stage.index) as span:
                    phase = self._attention_phase(op, graph, cfg)
                attention = accumulate(attention, phase)
                note(span, "attention", phase)
            elif isinstance(op, AggregationOp):
                with tracer.span("op:aggregation", category="op", layer=stage.index) as span:
                    phase = self._aggregation_phase(op, cfg, context, priming[op.adjacency])
                aggregation = accumulate(aggregation, phase)
                note(span, "aggregation", phase)
            elif isinstance(op, DenseMatmulOp):
                with tracer.span("op:dense_matmul", category="op", layer=stage.index) as span:
                    phase = self._dense_matmul_phase(op, graph, cfg)
                weighting = accumulate(weighting, phase)
                note(span, "weighting", phase)
            elif isinstance(op, HaloExchangeOp):
                with tracer.span(
                    "op:halo_exchange",
                    category="op",
                    layer=stage.index,
                    halo_vertices=op.halo_vertices,
                ) as span:
                    phase = self._halo_exchange_phase(op, cfg)
                communication = accumulate(communication, phase)
                note(span, "communication", phase)
            else:
                raise TypeError(f"GNNIE executor cannot handle op {op!r}")
        if weighting is None:
            weighting = PhaseResult("weighting")
        if aggregation is None:
            aggregation = PhaseResult("aggregation")
        layer = LayerResult(
            layer_index=stage.index,
            in_features=stage.in_features,
            out_features=stage.out_features,
            weighting=weighting,
            attention=attention,
            aggregation=aggregation,
            communication=communication,
        )
        return layer, slot_spans

    # ------------------------------------------------------------------ #
    # Per-op handlers
    # ------------------------------------------------------------------ #
    def _weighting_phase(
        self,
        op: WeightingOp,
        graph: Graph,
        cfg: AcceleratorConfig,
        context: GraphPricingContext,
    ) -> PhaseResult:
        exact_input = op.is_input_layer and op.in_features == graph.feature_length
        density = HIDDEN_DENSITY if op.density is None else op.density
        # Priced phases are memoized per graph on the knobs they actually
        # read, so a config batch varying, say, γ or buffer sizes prices
        # each distinct Weighting workload once.  The memo holds pristine
        # copies: the overlap pass mutates phase results after pricing.
        key = (
            "weighting",
            exact_input,
            op.in_features,
            op.out_features,
            None if exact_input else density,
            _weighting_knobs(cfg),
        )
        cached = context.phase_memo.get(key)
        if cached is not None:
            return replace(cached)
        if exact_input:
            # The input layer prices the dataset's actual sparse features:
            # per-block nonzero counts and the exact RLC-compressed size are
            # pure functions of (graph, block size | value width), shared
            # across configs via the pricing context.
            block_size = -(-op.in_features // cfg.num_rows)
            schedule = schedule_weighting(
                None,
                op.out_features,
                cfg,
                block_nonzeros=context.input_blocks(block_size),
                in_features=op.in_features,
            )
            phase = weighting_phase_from_schedule(
                schedule,
                graph.num_vertices,
                op.in_features,
                op.out_features,
                cfg,
                input_traffic_bits=context.input_rlc_bits(8 * cfg.bytes_per_value),
            )
        else:
            # Later layers: statistical block nonzeros at the modeled density.
            block_size = -(-op.in_features // cfg.num_rows)
            num_blocks = -(-op.in_features // block_size)
            per_block = int(round(density * block_size))
            block_nonzeros = np.full(
                (graph.num_vertices, num_blocks), per_block, dtype=np.int64
            )
            phase, _ = simulate_weighting(
                cfg,
                op.out_features,
                block_nonzeros=block_nonzeros,
                in_features=op.in_features,
                is_input_layer=False,
            )
        context.phase_memo[key] = replace(phase)
        return phase

    def _attention_phase(
        self, op: AttentionOp, graph: Graph, cfg: AcceleratorConfig
    ) -> PhaseResult:
        schedule = schedule_attention(graph.num_vertices, op.out_features, cfg)
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
        cfg: AcceleratorConfig,
        context: GraphPricingContext,
        priming_width: int,
    ) -> PhaseResult:
        sim_key = (*self._cache_key(op.adjacency, cfg), priming_width)
        memo_key = ("aggregation", sim_key, op.width, op.weighted, _aggregation_knobs(cfg))
        cached = context.phase_memo.get(memo_key)
        if cached is not None:
            # A priced phase reuses its cache simulation too.
            self.metrics.counter("executor.cache_sim.memo_hits").inc()
            return replace(cached)
        adjacency = context.adjacency(op.adjacency)
        cache_result = context.cache_results.get(sim_key)
        if cache_result is not None:
            self.metrics.counter("executor.cache_sim.memo_hits").inc()
        else:
            # Metrics are recorded only when the simulation actually runs;
            # memo hits re-use the numbers without double-counting events.
            self.metrics.counter("executor.cache_sim.runs").inc()
            edge_index = (
                context.edge_index(op.adjacency) if cfg.enable_degree_aware_caching else None
            )
            cache_result = run_cache_simulation(
                adjacency, cfg, priming_width, metrics=self.metrics, edge_index=edge_index
            )
            context.cache_results[sim_key] = cache_result
        phase = aggregation_phase_from_cache(
            cache_result, adjacency, cfg, op.width, is_gat=op.weighted
        )
        context.phase_memo[memo_key] = replace(phase)
        return phase

    def _halo_exchange_phase(
        self, op: HaloExchangeOp, cfg: AcceleratorConfig
    ) -> PhaseResult:
        """Inter-chip boundary-feature transfer before aggregation.

        Cost model: one fixed link latency (synchronization + first flit)
        plus the serialized halo payload — ``halo_vertices × features``
        values at the configured width — over the chip-to-chip link
        bandwidth.  A chip with an empty halo (nothing cut toward it) pays
        nothing.  The traffic is link traffic, not DRAM traffic, so it is
        deliberately absent from the DRAM/energy accounting.
        """
        if op.halo_vertices <= 0:
            return PhaseResult(name="communication")
        payload_bytes = op.halo_vertices * op.features * cfg.bytes_per_value
        cycles = cfg.link_latency_cycles + int(
            np.ceil(payload_bytes / cfg.link_bytes_per_cycle)
        )
        return PhaseResult(name="communication", compute_cycles=cycles)

    def _dense_matmul_phase(
        self, op: DenseMatmulOp, graph: Graph, cfg: AcceleratorConfig
    ) -> PhaseResult:
        """Graph-scaled dense products (DiffPool's Sᵀ A S and Sᵀ Z)."""
        macs = graph.num_edges * op.macs_per_edge + graph.num_vertices * op.macs_per_vertex
        compute_cycles = int(np.ceil(macs / cfg.total_macs))
        softmax_ops = graph.num_vertices * op.softmax_ops_per_vertex
        output_bytes = op.output_values * cfg.bytes_per_value
        return PhaseResult(
            name="weighting",
            compute_cycles=compute_cycles,
            sfu_cycles=int(np.ceil(softmax_ops / (4 * cfg.num_rows))),
            mac_operations=int(macs),
            sfu_operations=int(softmax_ops),
            dram_write_bytes=int(output_bytes),
            dram_output_stream_bytes=int(output_bytes),
            output_buffer_bytes=int(output_bytes),
        )

    # ------------------------------------------------------------------ #
    # Span attribution
    # ------------------------------------------------------------------ #
    def _phase_energy_pj(self, phase: PhaseResult) -> float:
        """Dynamic energy attributable to one phase contribution (pJ).

        Static (leakage) energy is a whole-run quantity and stays on the
        inference root span only.
        """
        model = self.energy_model
        return (
            model.mac_energy(phase.mac_operations)
            + model.sfu_energy(phase.sfu_operations)
            + model.buffer_energy("input", phase.input_buffer_bytes)
            + model.buffer_energy("output", phase.output_buffer_bytes)
            + model.buffer_energy("weight", phase.weight_buffer_bytes)
            + model.dram_energy(phase.dram_input_stream_bytes)
            + model.dram_energy(phase.dram_weight_stream_bytes)
            + model.dram_energy(phase.dram_output_stream_bytes)
        )

    def _annotate_spans(self, result: InferenceResult, annotations, root) -> None:
        """Attach final modeled cycle attribution to the recorded spans.

        ``_overlap_layer_memory`` re-derives memory stalls *after* the per-op
        handlers ran, so per-op numbers captured at op time no longer sum to
        the layer's final total.  Here each op span gets its own busy cycles
        (compute + SFU + preprocessing, unchanged by overlap) and the
        layer's residual — the exposed memory stall the overlap pass charged
        to the aggregation phase — lands on the layer's aggregation span (or
        its last op when a layer lowered without one).  The invariant the
        acceptance tests pin: summing ``cycles`` over every category="op"
        span (including the global-preprocessing span) reproduces
        ``result.total_cycles`` exactly.
        """
        for layer, layer_span, slots in annotations:
            layer_span.set(
                cycles=layer.total_cycles,
                mac_operations=sum(p.mac_operations for p in layer.phases()),
                dram_bytes=sum(p.dram_bytes for p in layer.phases()),
            )
            spans = [entry for slot in ("weighting", "attention", "aggregation",
                                        "communication")
                     for entry in slots.get(slot, [])]
            assigned = 0
            for span, busy in spans:
                span.set(cycles=busy)
                assigned += busy
            residual = layer.total_cycles - assigned
            if residual and spans:
                # Prefer the aggregation slot (where the overlap pass parks
                # exposed stalls); otherwise the layer's last op.
                target = (slots.get("aggregation") or spans)[-1][0]
                target.set(cycles=int(target.record.attrs.get("cycles", 0)) + residual)
        root.set(
            cycles=result.total_cycles,
            mac_operations=result.total_mac_operations,
            dram_bytes=result.total_dram_bytes,
            energy_pj=result.energy.total_pj,
            latency_s=result.latency_seconds,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cache_key(ref: AdjacencyRef, cfg: AcceleratorConfig) -> tuple:
        # The priming width completes this key (see the modeling notes).
        # bytes_per_value is present: it sets the per-vertex record size and
        # therefore the buffer's vertex capacity, so quantization variants
        # must not share one simulation.
        return (
            ref,
            cfg.input_buffer_bytes,
            cfg.bytes_per_value,
            cfg.gamma,
            cfg.enable_degree_aware_caching,
            cfg.miss_path_mechanisms,
            cfg.victim_cache_entries,
            cfg.miss_cache_entries,
            cfg.stream_buffer_count,
            cfg.stream_buffer_depth,
        )

    @staticmethod
    def _overlap_layer_memory(layer: LayerResult) -> None:
        """Re-derive exposed memory stalls at layer granularity.

        The memory access scheduler prefetches streaming traffic (feature
        blocks, weight columns, cached-vertex records, partial-sum spills)
        while any phase of the layer computes, so only the traffic exceeding
        the layer's total busy time is exposed.  Random accesses (present
        only in the ablation baselines) cannot be prefetched and stay fully
        exposed where the phase charged them.
        """
        phases = layer.phases()
        busy = sum(p.compute_cycles + p.sfu_cycles + p.preprocessing_cycles for p in phases)
        streaming = sum(p.streaming_memory_cycles for p in phases)
        random_stalls = sum(
            max(0, p.memory_stall_cycles - max(0, p.streaming_memory_cycles -
                (p.compute_cycles + p.sfu_cycles)))
            for p in phases
            if p.dram_random_accesses
        )
        exposed = max(0, streaming - busy)
        for phase in phases:
            phase.memory_stall_cycles = 0
        # Attribute the layer's exposed stall (plus unhideable random-access
        # stalls) to the aggregation phase, which is where the traffic peaks.
        layer.aggregation.memory_stall_cycles = int(exposed + random_stalls)

    def _global_preprocessing_cycles(
        self, plan: InferencePlan, graph: Graph, cfg: AcceleratorConfig
    ) -> int:
        """Degree-based vertex reordering (binning), charged once per inference."""
        if not cfg.enable_degree_aware_caching:
            return 0
        cycles = 0
        for op in plan.global_ops:
            if isinstance(op, PreprocessOp) and op.kind == "degree_binning":
                cycles += int(np.ceil(graph.num_vertices / _PREPROCESSING_OPS_PER_CYCLE))
        return cycles

    def _energy(self, result: InferenceResult, cfg: AcceleratorConfig) -> EnergyBreakdown:
        model = self.energy_model
        breakdown = EnergyBreakdown()
        for layer in result.layers:
            for phase in layer.phases():
                breakdown.mac_pj += model.mac_energy(phase.mac_operations)
                breakdown.sfu_pj += model.sfu_energy(phase.sfu_operations)
                breakdown.input_buffer_pj += model.buffer_energy("input", phase.input_buffer_bytes)
                breakdown.output_buffer_pj += model.buffer_energy(
                    "output", phase.output_buffer_bytes
                )
                breakdown.weight_buffer_pj += model.buffer_energy(
                    "weight", phase.weight_buffer_bytes
                )
                breakdown.dram_input_pj += model.dram_energy(phase.dram_input_stream_bytes)
                breakdown.dram_weight_pj += model.dram_energy(phase.dram_weight_stream_bytes)
                breakdown.dram_output_pj += model.dram_energy(phase.dram_output_stream_bytes)
        breakdown.static_pj = model.static_energy(result.total_cycles, cfg.frequency_hz)
        return breakdown


register_executor("gnnie", GNNIEExecutor)
