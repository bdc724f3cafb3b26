"""Verification is free: rows stay byte-identical and the memo kills rework.

Two halves of the "prove the verifier is free" contract:

* **Byte identity** — a 2x2x2 sweep store (and a 4-chip store) written
  with verification on is byte-for-byte identical to a control written
  under ``REPRO_NO_VERIFY=1``.  Verification can reject a plan, but it
  must never *change* one.
* **No per-cell rework** — pricing one plan under a batch of configs runs
  the rule pass once; every further config is a memo hit (the same
  counter pattern that pins the cache-sim memo).
"""

from __future__ import annotations

import pytest

from repro.check import verify_counters
from repro.check.verifier import NO_VERIFY_ENV
from repro.datasets import build_dataset
from repro.hw.config import AcceleratorConfig
from repro.plan.lowering import lower
from repro.sim.gnnie_executor import GNNIEExecutor
from repro.sweep import ResultStore, ScenarioMatrix, run_sweep


def _write_store(matrix: ScenarioMatrix, path) -> bytes:
    run_sweep(matrix, store=ResultStore(path), jobs=1)
    return path.read_bytes()


@pytest.fixture()
def no_verify(monkeypatch):
    monkeypatch.setenv(NO_VERIFY_ENV, "1")


def test_sweep_rows_byte_identical_to_no_verify_control(tmp_path, monkeypatch):
    matrix = ScenarioMatrix.build(
        ["cora", "citeseer"],
        ["gcn", "gat"],
        backends=["gnnie", "awb-gcn"],
        scale=0.05,
        seed=0,
    )
    monkeypatch.delenv(NO_VERIFY_ENV, raising=False)
    verified = _write_store(matrix, tmp_path / "verified.jsonl")
    monkeypatch.setenv(NO_VERIFY_ENV, "1")
    control = _write_store(matrix, tmp_path / "control.jsonl")
    assert verified == control
    assert verified.count(b"\n") == 8  # 2 datasets x 2 families x 2 backends


def test_scaleout_rows_byte_identical_to_no_verify_control(tmp_path, monkeypatch):
    matrix = ScenarioMatrix.build(
        ["cora"], ["gcn"], backends=["gnnie"], scale=0.05, seed=0, chips=(4,)
    )
    monkeypatch.delenv(NO_VERIFY_ENV, raising=False)
    verified = _write_store(matrix, tmp_path / "verified.jsonl")
    monkeypatch.setenv(NO_VERIFY_ENV, "1")
    control = _write_store(matrix, tmp_path / "control.jsonl")
    assert verified == control


def test_batch_path_verifies_once_per_plan(monkeypatch):
    monkeypatch.delenv(NO_VERIFY_ENV, raising=False)
    graph = build_dataset("cora", scale=0.05, seed=7)
    plan = lower("gcn", graph)
    executor = GNNIEExecutor()
    configs = [
        AcceleratorConfig(),
        AcceleratorConfig(input_buffer_bytes=1 << 16),
        AcceleratorConfig(input_buffer_bytes=1 << 18),
    ]
    executor.execute(plan, graph)  # prime the memo for this plan
    before = verify_counters()
    for config in configs:
        executor.execute(plan, graph, config)
    after = verify_counters()
    assert after["runs"] == before["runs"]  # no re-verification per config
    assert after["hits"] == before["hits"] + len(configs)


def test_no_verify_env_skips_rule_pass_entirely(no_verify):
    graph = build_dataset("cora", scale=0.05, seed=7)
    plan = lower("gat", graph)
    before = verify_counters()
    GNNIEExecutor().execute(plan, graph)
    after = verify_counters()
    assert after == before
