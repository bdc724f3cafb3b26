"""Tests for the analysis helpers behind the figure reproductions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    alpha_round_histograms,
    beta_metric,
    compare_against_platform,
    design_beta_study,
    feature_nonzero_histogram,
    format_scientific,
    format_series,
    format_table,
    geometric_mean,
    weighting_row_profile,
)
from repro.baselines import PyGCPUModel
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import CacheKnobs, pricing_view
from repro.plan import lower
from repro.sim import GNNIEExecutor, run_cache_simulation


class TestSparsityHistogram:
    def test_counts_cover_all_vertices(self, small_cora):
        histogram = feature_nonzero_histogram(small_cora)
        assert histogram.num_vertices == small_cora.num_vertices
        assert histogram.sparsity == pytest.approx(small_cora.feature_sparsity())

    def test_spread_ratio_shows_rabbit_turtle_gap(self, small_cora):
        histogram = feature_nonzero_histogram(small_cora)
        assert histogram.spread_ratio() > 1.5

    def test_mean_median_max_consistent(self, small_cora):
        histogram = feature_nonzero_histogram(small_cora)
        assert histogram.median_nonzeros <= histogram.max_nonzeros
        assert histogram.mean_nonzeros <= histogram.max_nonzeros


class TestAlphaRounds:
    def test_histograms_flatten(self, medium_graph):
        config = AcceleratorConfig(input_buffer_bytes=16 * 1024)
        knobs = pricing_view(CacheKnobs, config, GNNIE_TABLE)
        result = run_cache_simulation(medium_graph.adjacency, knobs, 64)
        histograms = alpha_round_histograms(result)
        assert len(histograms) >= 2
        maxima = [h.max_alpha for h in histograms]
        peaks = [h.peak_frequency for h in histograms]
        assert all(b <= a for a, b in zip(maxima, maxima[1:]))
        assert all(b <= a for a, b in zip(peaks, peaks[1:]))

    def test_empty_result(self):
        from repro.cache import CacheSimulationResult

        assert alpha_round_histograms(CacheSimulationResult()) == []


class TestRowProfileAndBeta:
    def test_fig16_ordering(self, small_cora):
        profile = weighting_row_profile(small_cora)
        assert profile.baseline_imbalance >= profile.fm_imbalance >= profile.fm_lr_imbalance
        assert profile.fm_cycle_reduction > 0
        assert profile.fm_lr_cycle_reduction >= profile.fm_cycle_reduction

    def test_beta_metric_formula(self):
        assert beta_metric(1000, 800, 1024, 1224) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            beta_metric(1000, 800, 1024, 1024)

    def test_design_beta_study_shape(self, small_cora):
        betas = design_beta_study(small_cora)
        assert set(betas) == {"B", "C", "D", "E"}
        # Uniformly adding MACs has diminishing returns (Fig. 17).
        assert betas["B"] >= betas["C"] >= betas["D"]
        # The flexible-MAC design E gives the best speedup per added MAC.
        assert betas["E"] > betas["B"]


class TestSpeedupHelpers:
    def test_compare_against_platform(self, tiny_graph):
        gnnie = GNNIEExecutor().execute(lower("gcn", tiny_graph), tiny_graph)
        entry = compare_against_platform(gnnie, tiny_graph, PyGCPUModel())
        assert entry.speedup > 1
        assert entry.energy_efficiency_gain > 0
        assert entry.platform == "PyG-CPU"

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([5.0, 0.0]) == pytest.approx(5.0)


class TestReporting:
    def test_format_scientific(self):
        assert format_scientific(0) == "0"
        assert "e" in format_scientific(123456.0)
        assert format_scientific(12.345) == "12.35"
        assert "e" in format_scientific(0.0001)

    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 1e7}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="none")

    def test_format_series(self):
        text = format_series({"gcn": [1.0, 2.0], "gat": {"CR": 3.0}}, title="speedups")
        assert "speedups" in text
        assert "gcn" in text and "CR=3" in text
