"""Tests for the roofline analysis and the result-export helpers."""

from __future__ import annotations

import json

import pytest

from repro.analysis import roofline_analysis
from repro.hw import AcceleratorConfig
from repro.plan import lower
from repro.sim import GNNIEExecutor, phase_table, result_to_dict, result_to_json


@pytest.fixture(scope="module")
def gcn_result(tiny_graph):
    return GNNIEExecutor().execute(lower("gcn", tiny_graph), tiny_graph)


@pytest.fixture(scope="module")
def gat_result(tiny_graph):
    return GNNIEExecutor().execute(lower("gat", tiny_graph), tiny_graph)


class TestRoofline:
    def test_every_phase_classified(self, gcn_result):
        summary = roofline_analysis(gcn_result)
        expected_phases = sum(len(layer.phases()) for layer in gcn_result.layers)
        assert len(summary.phases) == expected_phases
        assert all(phase.bound in ("compute", "memory") for phase in summary.phases)

    def test_machine_balance_positive(self, gcn_result):
        summary = roofline_analysis(gcn_result, AcceleratorConfig())
        assert summary.machine_balance_macs_per_byte > 1

    def test_compute_bound_fraction_in_range(self, gcn_result):
        summary = roofline_analysis(gcn_result)
        assert 0.0 <= summary.compute_bound_fraction <= 1.0

    def test_dominant_phase_is_a_known_phase(self, gcn_result):
        summary = roofline_analysis(gcn_result)
        assert summary.dominant_phase() in ("weighting", "aggregation", "attention")

    def test_intensity_positive(self, gat_result):
        summary = roofline_analysis(gat_result)
        assert all(phase.arithmetic_intensity >= 0 for phase in summary.phases)


class TestResultExport:
    def test_dict_roundtrips_through_json(self, gcn_result):
        document = result_to_json(gcn_result)
        parsed = json.loads(document)
        assert parsed["dataset"] == gcn_result.dataset
        assert parsed["total_cycles"] == gcn_result.total_cycles
        assert len(parsed["layers"]) == len(gcn_result.layers)

    def test_dict_contains_energy_breakdown(self, gcn_result):
        report = result_to_dict(gcn_result)
        assert "energy_breakdown_pj" in report
        assert report["energy_breakdown_pj"]["total_pj"] > 0

    def test_layer_phase_structure(self, gat_result):
        report = result_to_dict(gat_result)
        first_layer = report["layers"][0]
        names = [phase["name"] for phase in first_layer["phases"]]
        assert names == ["weighting", "attention", "aggregation"]

    def test_phase_table_totals_match_result(self, gcn_result):
        rows = phase_table(gcn_result)
        assert sum(row["total_cycles"] for row in rows) == sum(
            layer.total_cycles for layer in gcn_result.layers
        )
        assert all(set(row) >= {"layer", "phase", "macs", "dram_bytes"} for row in rows)
