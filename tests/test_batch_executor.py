"""Batch execution: sharing never changes a row; obs integration.

The sweep runner dispatches one :func:`~repro.sweep.run_batch_timed` call
per (dataset, family) group, sharing the graph, the lowered plan and one
executor per backend across the group's configs, and every memo lives on
the graph's pricing context (:mod:`repro.sim.batch`).  These tests pin the
one promise that sharing makes — *it never changes a row* — by comparing
shared batches against each cell run alone on an unshared graph, then
check the two behaviours the sharing exists for: cache-simulation dedupe
across a dataset group, and truthful per-cell observability.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import fields, replace

import pytest

from repro.datasets import build_dataset
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import AggregationKnobs, CacheKnobs, WeightingKnobs, pricing_view
from repro.models import MODEL_FAMILIES
from repro.obs import MetricsRegistry
from repro.plan.ir import FULL_ADJACENCY, AdjacencyRef
from repro.sim.batch import pricing_context
from repro.sweep import ScenarioMatrix, run_batch_timed, run_sweep
from repro.sweep.store import canonical_row


def _mixed_configs() -> list[AcceleratorConfig]:
    """A mixed batch of ≥20 configs varying every batch-relevant knob."""
    base = AcceleratorConfig()
    configs = [base]
    for macs in ((3, 4, 5), (2, 4, 8), (4, 6, 8), (5, 5, 6)):
        configs.append(replace(base, macs_per_group=macs, name=f"macs{macs}"))
    for rows in ((10, 3, 3), (4, 6, 6)):
        configs.append(replace(base, rows_per_group=rows, name=f"rows{rows}"))
    for kb in (64, 128, 256, 1024):
        configs.append(replace(base, input_buffer_bytes=kb * 1024, name=f"buf{kb}k"))
    for gamma in (2, 3, 8, 12):
        configs.append(replace(base, gamma=gamma, name=f"gamma{gamma}"))
    configs.append(replace(base, output_buffer_bytes=256 * 1024, name="obuf256k"))
    configs.append(replace(base, enable_degree_aware_caching=False, name="nocache"))
    configs.append(replace(base, enable_flexible_mac=False, name="noflex"))
    configs.append(replace(base, enable_load_redistribution=False, name="nolr"))
    configs.append(replace(base, enable_aggregation_load_balancing=False, name="nolb"))
    configs.append(
        replace(base, gamma=2, input_buffer_bytes=128 * 1024, name="gamma2buf128k")
    )
    assert len(configs) >= 20
    return configs


#: One override per config field except ``name``, which no pricing reads.
#: A config built from an entry differs from its base in that field only.
#: A new field fails ``test_every_config_field_is_keyed`` until it states
#: here how pricing should see it, and a field whose entry moves no priced
#: number on either base fails it as dead.
_FIELD_PERTURBATIONS: dict[str, dict] = {
    "macs_per_group": {"macs_per_group": (2, 4, 8)},
    "rows_per_group": {"rows_per_group": (10, 3, 3)},
    "input_buffer_bytes": {"input_buffer_bytes": 128 * 1024},
    "output_buffer_bytes": {"output_buffer_bytes": 64 * 1024},
    "gamma": {"gamma": 2},
    "enable_flexible_mac": {"enable_flexible_mac": False},
    "enable_load_redistribution": {"enable_load_redistribution": False},
    "enable_degree_aware_caching": {"enable_degree_aware_caching": False},
    "enable_aggregation_load_balancing": {"enable_aggregation_load_balancing": False},
}


#: Two bases whose 64 KB input buffer is small enough for γ to be priced
#: on a small graph.  The first caches degree-aware, where γ is read.  The
#: second caches in id order, and turns Flexible MAC off, which leaves Load
#: Redistribution an imbalance to move.
_BASES = (
    AcceleratorConfig(input_buffer_bytes=64 * 1024, name="degree-aware"),
    AcceleratorConfig(
        input_buffer_bytes=64 * 1024,
        enable_degree_aware_caching=False,
        enable_flexible_mac=False,
        name="id-order",
    ),
)


def _views(config: AcceleratorConfig) -> tuple:
    return tuple(
        pricing_view(kind, config, GNNIE_TABLE)
        for kind in (WeightingKnobs, CacheKnobs, AggregationKnobs)
    )


def _single_field_configs() -> list[AcceleratorConfig]:
    """Each base, followed by one config per field perturbation of it."""
    configs = []
    for base in _BASES:
        configs.append(base)
        for field_name, overrides in _FIELD_PERTURBATIONS.items():
            configs.append(replace(base, **overrides, name=f"{base.name}/{field_name}"))
    return configs


def _batch_and_alone_rows(cells, graph) -> tuple[list[dict], list[dict]]:
    """Rows of ``cells`` priced as one shared batch per family, and each
    priced as a batch of one on a deep copy of the graph, which starts with
    an empty pricing context and shares nothing."""
    batch_rows = []
    for family in MODEL_FAMILIES:
        group = [cell for cell in cells if cell.family == family]
        batch_rows.extend(row for row, _, _ in run_batch_timed(group, graph))
    alone_rows = [
        row
        for cell in cells
        for row, _, _ in run_batch_timed([cell], copy.deepcopy(graph))
    ]
    return batch_rows, alone_rows


class TestSharingNeverChangesARow:
    def test_group_batches_match_cells_run_alone(self):
        """≥20 mixed configs x all 5 families: shared group batches equal
        every cell run as a batch of one on a deep copy of the graph, which
        starts with an empty pricing context and shares nothing.
        """
        matrix = ScenarioMatrix.build(
            ["citeseer"],
            list(MODEL_FAMILIES),
            backends=["gnnie"],
            scale=0.2,
            seed=3,
            configs=_mixed_configs(),
        )
        cells = matrix.cells()
        assert len(cells) >= 100  # 5 families x >=20 configs
        graph = build_dataset("citeseer", scale=0.2, seed=cells[0].seed)
        batch_rows, alone_rows = _batch_and_alone_rows(cells, graph)
        assert [canonical_row(row) for row in batch_rows] == [
            canonical_row(row) for row in alone_rows
        ]

    def test_every_config_field_is_keyed(self):
        """Each config differs from its base in one field and shares a batch
        with it, yet prices as if alone, on one chip and on two: no memo key
        leaves a field out.  Every field moves some priced number on one
        base, so none is dead."""
        assert set(_FIELD_PERTURBATIONS) == {
            f.name for f in fields(AcceleratorConfig) if f.name != "name"
        }
        matrix = ScenarioMatrix.build(
            ["cora"],
            list(MODEL_FAMILIES),
            backends=["gnnie"],
            scale=0.1,
            seed=3,
            configs=_single_field_configs(),
            chips=[1, 2],
        )
        cells = matrix.cells()
        assert len(cells) == 5 * 2 * 2 * (1 + len(_FIELD_PERTURBATIONS))
        graph = build_dataset("cora", scale=0.1, seed=cells[0].seed)
        batch_rows, alone_rows = _batch_and_alone_rows(cells, graph)
        assert [canonical_row(row) for row in batch_rows] == [
            canonical_row(row) for row in alone_rows
        ]
        priced = {
            (row["config_name"], row["family"], row["chips"]): row["metrics"]
            for row in batch_rows
        }
        dead = [
            field_name
            for field_name in _FIELD_PERTURBATIONS
            if all(
                priced[f"{base.name}/{field_name}", family, chips]
                == priced[base.name, family, chips]
                for base in _BASES
                for family in MODEL_FAMILIES
                for chips in (1, 2)
            )
        ]
        assert dead == []

    def test_one_executor_matches_fresh_executors(self):
        from repro.plan.lowering import lower
        from repro.sim import result_to_dict
        from repro.sim.gnnie_executor import GNNIEExecutor

        graph = build_dataset("cora", scale=0.2, seed=5)
        plan = lower("gat", graph)
        configs = _mixed_configs()[:8]
        executor = GNNIEExecutor()
        shared = [executor.execute(plan, graph, cfg) for cfg in configs]
        alone = [
            GNNIEExecutor().execute(plan, copy.deepcopy(graph), cfg) for cfg in configs
        ]
        assert [result_to_dict(r) for r in shared] == [result_to_dict(r) for r in alone]


class TestPricingViews:
    def test_every_config_field_is_in_a_view(self):
        """Structural, with no pricing: each field's perturbation changes a
        view on some base.  A new field fails here until it is in a view."""
        unviewed = {
            field.name
            for field in fields(AcceleratorConfig)
            if field.name != "name"
            and all(
                _views(replace(base, **_FIELD_PERTURBATIONS[field.name])) == _views(base)
                for base in _BASES
            )
        }
        assert unviewed == set()

    def test_a_view_rejects_other_names(self):
        config = AcceleratorConfig()
        with pytest.raises(AttributeError):
            pricing_view(WeightingKnobs, config, GNNIE_TABLE).gamma
        with pytest.raises(AttributeError):
            pricing_view(AggregationKnobs, config, GNNIE_TABLE).macs_per_group
        with pytest.raises(AttributeError):
            pricing_view(CacheKnobs, config, GNNIE_TABLE).num_rows
        with pytest.raises(AttributeError):
            pricing_view(CacheKnobs, config, GNNIE_TABLE).exp_latency_cycles

    def test_views_price_on_the_table_they_are_given(self):
        """The phase views carry the table and count MACs with its columns;
        the cache view carries the two entries the walk reads."""
        config = AcceleratorConfig()
        table = replace(GNNIE_TABLE, num_cols=8, bytes_per_value=2, index_bytes=8)
        assert pricing_view(WeightingKnobs, config, table).table is table
        aggregation = pricing_view(AggregationKnobs, config, table)
        assert aggregation.table is table
        assert aggregation.total_macs == 608
        cache = pricing_view(CacheKnobs, config, table)
        assert (cache.bytes_per_value, cache.index_bytes) == (2, 8)
        assert cache != pricing_view(CacheKnobs, config, GNNIE_TABLE)

    def test_allocations_of_equal_total_share_one_aggregation(self, monkeypatch):
        """(4, 5, 6) and (3, 6, 7) MACs per CPE over rows (8, 4, 4) both
        total 1,216 MACs, so GCN's Aggregation is priced once per layer on
        one graph, from the view rather than the config."""
        from repro.plan.lowering import lower
        from repro.sim import gnnie_executor
        from repro.sim.trace import result_to_dict

        original = gnnie_executor.aggregation_phase_from_cache
        priced = []

        def counted(*args, **kwargs):
            priced.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(gnnie_executor, "aggregation_phase_from_cache", counted)
        graph = build_dataset("cora", scale=0.1, seed=9)
        plan = lower("gcn", graph)
        configs = [AcceleratorConfig(), AcceleratorConfig(macs_per_group=(3, 6, 7))]
        assert configs[0].total_macs == configs[1].total_macs == 1216
        shared = [
            result_to_dict(gnnie_executor.GNNIEExecutor(cfg).execute(plan, graph))
            for cfg in configs
        ]
        assert len(priced) == 2
        assert all(type(knobs) is AggregationKnobs for knobs in priced)
        alone = [
            result_to_dict(
                gnnie_executor.GNNIEExecutor(cfg).execute(plan, copy.deepcopy(graph))
            )
            for cfg in configs
        ]
        assert shared == alone


class TestCacheSimSharing:
    def test_inline_sweep_dedupes_cache_sims_across_group(self):
        """``jobs=1`` shares one simulation per cache key across a whole
        dataset group instead of re-simulating per cell."""
        gammas = [replace(AcceleratorConfig(), gamma=g, name=f"g{g}") for g in (2, 4)]
        matrix = ScenarioMatrix.build(
            ["cora"],
            ["gcn", "gat"],
            backends=["gnnie"],
            scale=0.1,
            seed=0,
            configs=[AcceleratorConfig()] + gammas,
        )
        metrics = MetricsRegistry()
        graphs = {"cora": build_dataset("cora", scale=0.1, seed=0)}
        summary = run_sweep(matrix, jobs=1, graphs=graphs, metrics=metrics)
        assert summary.executed == 6  # 2 families x 3 configs

        runs = metrics.counter("executor.cache_sim.runs").value
        memo_hits = metrics.counter("executor.cache_sim.memo_hits").value
        # One simulation per distinct (graph, buffer config, priming width):
        # the three configs differ in gamma, which IS part of the cache key,
        # and GCN and GAT prime at the same width, so three runs in all.
        assert runs == 3
        # Each 2-layer plan prices 2 aggregation ops per config: 12 in all,
        # every one past the three runs served from the memo.
        assert memo_hits == 12 - runs

    def test_executor_holds_no_memo_state(self):
        from repro.plan.lowering import lower
        from repro.sim.gnnie_executor import GNNIEExecutor

        graph = build_dataset("cora", scale=0.1, seed=9)
        executor = GNNIEExecutor()
        executor.execute(lower("gcn", graph), graph)
        assert set(vars(executor)) == {"config", "tracer", "metrics"}

    def test_every_reuse_counts_as_a_memo_hit(self):
        """A rerun prices every aggregation op from the graph's memos: no
        new simulation, one ``memo_hits`` per op, and no second counter."""
        from repro.plan.ir import AggregationOp
        from repro.plan.lowering import lower
        from repro.sim.gnnie_executor import GNNIEExecutor

        graph = build_dataset("cora", scale=0.1, seed=9)
        plan = lower("gcn", graph)
        aggregations = sum(
            isinstance(op, AggregationOp) for stage in plan.layers for op in stage.ops
        )
        metrics = MetricsRegistry()
        runs = metrics.counter("executor.cache_sim.runs")
        memo_hits = metrics.counter("executor.cache_sim.memo_hits")
        GNNIEExecutor(metrics=metrics).execute(plan, graph)
        # Both layers aggregate over one adjacency: one simulation, reused
        # by the second layer's op at its own width.
        assert (runs.value, memo_hits.value) == (1, aggregations - 1)

        GNNIEExecutor(metrics=metrics).execute(plan, graph)
        assert (runs.value, memo_hits.value) == (1, 2 * aggregations - 1)
        names = {row["name"] for row in metrics.snapshot()}
        assert "executor.cache_sim.context_hits" not in names

    def test_deep_copy_shares_no_memos(self):
        """The equivalence tests above rely on a deep copy being an
        unshared graph: it starts with no context and leaves the
        original's memos untouched."""
        from repro.plan.lowering import lower
        from repro.sim.gnnie_executor import GNNIEExecutor

        graph = build_dataset("cora", scale=0.1, seed=9)
        GNNIEExecutor().execute(lower("gcn", graph), graph)
        context = pricing_context(graph)
        assert context.cache_results and context.phase_memo

        twin = copy.deepcopy(graph)
        assert twin.pricing is None
        twin_context = pricing_context(twin)
        assert twin_context is not context
        assert not twin_context.cache_results and not twin_context.phase_memo
        assert pricing_context(graph) is context

    def test_pricing_context_is_per_graph_and_collected(self):
        graph = build_dataset("cora", scale=0.1, seed=9)
        context = pricing_context(graph)
        assert pricing_context(graph) is context
        assert graph.pricing is context
        other = build_dataset("cora", scale=0.1, seed=10)
        assert pricing_context(other) is not context
        # A pickled graph (a pool worker's copy) leaves its context behind.
        assert pickle.loads(pickle.dumps(graph)).pricing is None

    def test_context_resolves_adjacency_handles(self):
        graph = build_dataset("cora", scale=0.1, seed=9)
        context = pricing_context(graph)
        assert context.adjacency(FULL_ADJACENCY) is graph.adjacency
        sampled = context.adjacency(AdjacencyRef("sampled", 5))
        assert sampled is context.adjacency(AdjacencyRef("sampled", 5))
        assert sampled.num_vertices == graph.num_vertices
        assert sampled.max_degree() <= graph.adjacency.max_degree()
        with pytest.raises(KeyError, match="unknown adjacency handle"):
            context.adjacency(AdjacencyRef("coarsened"))

    @pytest.mark.parametrize("sample_size", [None, 0, -3])
    def test_a_sampled_handle_needs_a_positive_size(self, sample_size):
        """No default sample size stands in for a missing one, and a
        rejected handle memoizes nothing."""
        graph = build_dataset("cora", scale=0.1, seed=0)
        context = pricing_context(graph)
        context.adjacency(AdjacencyRef("sampled", 25))
        with pytest.raises(KeyError, match="needs a positive sample size"):
            context.adjacency(AdjacencyRef("sampled", sample_size))
        assert list(context._sampled) == [25]

    def test_simulations_are_keyed_by_adjacency_handle(self):
        """One simulation per (handle, cache knobs, priming width): GraphSAGE
        aggregates over its sampled handle, GCN over the full one."""
        from repro.plan.lowering import lower
        from repro.sim.gnnie_executor import GNNIEExecutor

        graph = build_dataset("cora", scale=0.1, seed=9)
        executor = GNNIEExecutor()
        for family in ("graphsage", "gcn", "graphsage"):
            executor.execute(lower(family, graph), graph)
        handles = [key[0] for key in pricing_context(graph).cache_results]
        assert sorted(handles, key=repr) == [
            FULL_ADJACENCY, AdjacencyRef("sampled", 25)
        ]


class TestBatchObservability:
    def test_progress_fires_once_per_cell_under_batch(self):
        """Satellite: batch dispatch still reports per-cell progress with
        the 6-arg callback — one call per cell, monotonic done/total,
        positive per-cell wall time."""
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie", "awb-gcn"], scale=0.1, seed=0
        )
        seen = []
        summary = run_sweep(
            matrix,
            jobs=1,
            progress=lambda cell, row, done, total, cached, wall_s: seen.append(
                (cell.key(), done, total, cached, wall_s)
            ),
        )
        assert len(seen) == summary.total == 4
        assert [done for _, done, _, _, _ in seen] == [1, 2, 3, 4]
        assert all(total == 4 and not cached for _, _, total, cached, _ in seen)
        assert all(wall_s >= 0.0 for *_, wall_s in seen)
        assert len({key for key, *_ in seen}) == 4

    def test_batch_cells_feed_sweep_metrics(self):
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie", "hygcn"], scale=0.1, seed=0
        )
        metrics = MetricsRegistry()
        summary = run_sweep(matrix, jobs=1, metrics=metrics)
        assert metrics.counter("sweep.cells.executed").value == summary.executed == 4
        assert metrics.counter("sweep.cell_wall_seconds").value > 0.0

    def test_batch_cells_emit_traces(self):
        from repro.obs import Tracer

        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie"], scale=0.1, seed=0
        )
        tracer = Tracer()
        run_sweep(matrix, jobs=1, tracer=tracer)
        names = [record.name for record in tracer.records]
        # One "cell" span per executed cell, each with per-layer children.
        assert names.count("cell") == 2
        assert "sweep" in names
        assert any(name.startswith("layer") for name in names)
        assert any(name.startswith("op:") for name in names)
