"""Analysis and reporting helpers backing the figure/table reproductions.

The miss-path ablation builds its own table rows
(:func:`repro.cache.miss_path_ablation_rows`).
"""

from repro.analysis.alpha_rounds import AlphaRoundHistogram, alpha_round_histograms
from repro.analysis.reporting import format_scientific, format_series, format_table
from repro.analysis.roofline import PhaseRoofline, RooflineSummary, roofline_analysis
from repro.analysis.sparsity import NonzeroHistogram, feature_nonzero_histogram
from repro.analysis.speedup import (
    SpeedupEntry,
    compare_against_platform,
    geometric_mean,
)
from repro.analysis.sweep_aggregate import (
    backend_geomeans,
    beta_rows,
    design_points_from_rows,
    geomean_table_rows,
    load_rows,
    pareto_rows,
    speedup_rows,
)
from repro.analysis.tune_report import tune_report, tune_table_rows
from repro.analysis.workload import (
    RowWorkloadProfile,
    beta_metric,
    design_beta_study,
    weighting_row_profile,
)

__all__ = [
    "AlphaRoundHistogram",
    "alpha_round_histograms",
    "NonzeroHistogram",
    "PhaseRoofline",
    "RooflineSummary",
    "roofline_analysis",
    "feature_nonzero_histogram",
    "SpeedupEntry",
    "compare_against_platform",
    "geometric_mean",
    "backend_geomeans",
    "beta_rows",
    "design_points_from_rows",
    "geomean_table_rows",
    "load_rows",
    "pareto_rows",
    "speedup_rows",
    "tune_report",
    "tune_table_rows",
    "RowWorkloadProfile",
    "weighting_row_profile",
    "beta_metric",
    "design_beta_study",
    "format_table",
    "format_series",
    "format_scientific",
]
