"""Tests for the EnGN baseline cost model."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import EnGNModel, HyGCNModel, PyGCPUModel, workload_from_plan
from repro.baselines.engn import ENGN_TABLE
from repro.plan import lower
from repro.sim import GNNIEExecutor


def _engn(**entries) -> EnGNModel:
    """EnGN priced from its table with ``entries`` replaced."""
    model = EnGNModel()
    model.table = replace(ENGN_TABLE, **entries)
    return model


class TestEnGNModel:
    @pytest.fixture(scope="class")
    def engn(self):
        return EnGNModel()

    def test_supported_families(self, engn):
        assert engn.supports("gcn") and engn.supports("ginconv")
        assert not engn.supports("gat")
        assert not engn.supports("diffpool")

    def test_rejects_gat(self, engn, tiny_graph):
        with pytest.raises(ValueError):
            engn.evaluate(tiny_graph, workload_from_plan(lower("gat", tiny_graph), tiny_graph))

    def test_latency_and_energy_positive(self, engn, small_cora):
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        result = engn.evaluate(small_cora, workload)
        assert result.latency_seconds > 0
        assert result.energy_joules > 0
        assert result.platform == "EnGN"

    def test_faster_than_cpu(self, engn, small_cora):
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        cpu = PyGCPUModel().evaluate(small_cora, workload)
        assert engn.evaluate(small_cora, workload).latency_seconds < cpu.latency_seconds

    def test_ring_overhead_costs_cycles(self, small_cora):
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        with_ring = _engn(ring_overhead_factor=0.5)
        without_ring = _engn(ring_overhead_factor=0.0, reorder_seconds_per_edge=0.0)
        assert (
            with_ring.latency_seconds(small_cora, workload)
            > without_ring.latency_seconds(small_cora, workload)
        )

    def test_reordering_preprocessing_charged(self, small_cora):
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        cheap = _engn(reorder_seconds_per_edge=0.0)
        expensive = _engn(reorder_seconds_per_edge=1e-7)
        assert expensive.latency_seconds(small_cora, workload) > cheap.latency_seconds(
            small_cora, workload
        )

    def test_gnnie_faster_than_engn(self, engn, small_cora):
        gnnie = GNNIEExecutor().execute(lower("gcn", small_cora), small_cora)
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        baseline = engn.evaluate(small_cora, workload)
        assert baseline.latency_seconds / gnnie.latency_seconds > 1.5

    def test_engn_competitive_with_hygcn(self, engn, small_cora):
        """EnGN exploits input sparsity, so it should not be dramatically
        slower than HyGCN on the sparse citation workloads."""
        workload = workload_from_plan(lower("gcn", small_cora), small_cora)
        engn_latency = engn.evaluate(small_cora, workload).latency_seconds
        hygcn_latency = HyGCNModel().evaluate(small_cora, workload).latency_seconds
        assert engn_latency < 5 * hygcn_latency
