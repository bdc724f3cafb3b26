"""Autotuner benchmark — the closed loop vs the fixed design-space grid.

The paper fixes GNNIE's flexible-MAC allocation and buffer sizes through an
open-loop design-space exploration (Section VIII-A); Design E is the winner
that exploration hand-picks, and Fig. 17's β metric is its justification.
This benchmark shows the ``repro.tune`` closed loop recovering that choice
automatically and cheaply on cora/gcn:

* the tuner reaches a design whose β (vs Design A) is at least the fixed
  grid's Design E β,
* while simulating strictly fewer unique cells than the full
  ``sweep_mac_allocations`` × buffer grid it replaces,
* and a re-launched (killed-and-resumed) tuning run executes zero cells.
"""

from __future__ import annotations

from repro.analysis import format_table, tune_report, tune_table_rows
from repro.datasets import build_dataset
from repro.hw import design_preset
from repro.plan import lower
from repro.sim import GNNIEExecutor, sweep_mac_allocations
from repro.sweep import ResultStore, derive_seed
from repro.tune import TuneSpec, run_tune

#: The fixed grid the tuner replaces: every admissible MAC allocation
#: crossed with the default buffer grid of ``sweep_buffer_sizes``
#: (4 input sizes × 3 output sizes).
FIXED_GRID_CELLS = len(sweep_mac_allocations(mac_budget=1280)) * 4 * 3


def test_autotune_matches_design_e_with_fewer_cells(benchmark, record, tmp_path):
    spec = TuneSpec(
        dataset="cora", family="gcn", seed=0, generations=4, population=6,
        mac_budget=1280,
    )
    store_path = tmp_path / "tune.jsonl"

    def compute():
        return run_tune(spec, store=ResultStore(store_path))

    result = benchmark.pedantic(compute, rounds=1, iterations=1)

    # Fixed-grid reference: Design E's β on the exact graph the tuner sweeps
    # (same derived dataset seed), computed independently of the tune loop.
    graph = build_dataset("cora", seed=derive_seed(spec.seed, "cora"))
    plan = lower("gcn", graph)
    design_a = GNNIEExecutor(design_preset("A")).execute(plan, graph)
    design_e = GNNIEExecutor(design_preset("E")).execute(plan, graph)
    beta_design_e = (design_a.total_cycles - design_e.total_cycles) / (
        design_preset("E").total_macs - design_preset("A").total_macs
    )

    report = tune_report(store_path, dataset="cora", family="gcn")
    record(
        "autotune_cora_gcn",
        format_table(
            tune_table_rows(report),
            title=(
                f"Autotuned designs by β — {result.evaluated_cells} cells vs "
                f"{FIXED_GRID_CELLS}-cell fixed grid (Design E β = {beta_design_e:.4f})"
            ),
        ),
    )

    # The tuner matches or beats the paper's hand-picked design...
    assert result.best is not None
    assert result.best["beta"] >= beta_design_e
    # ...while simulating a small fraction of the grid it replaces.
    assert result.evaluated_cells < FIXED_GRID_CELLS
    assert result.executed_cells == result.evaluated_cells

    # Kill-and-resume: a re-launched run serves everything from the store.
    resumed = run_tune(spec, store=ResultStore(store_path))
    assert resumed.executed_cells == 0
    assert resumed.evaluated_cells == result.evaluated_cells
    assert resumed.best == result.best
