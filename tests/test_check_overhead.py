"""Verification is free: the memo kills per-config rework.

Pricing one plan under a batch of configs runs the rule pass once; every
further config is a memo hit (the same counter pattern that pins the
cache-sim memo).  That verification never *changes* a plan is pinned by
``test_check_verifier.py::test_verify_plan_is_memoized_by_content``.
"""

from __future__ import annotations

from repro.check import verify_counters
from repro.datasets import build_dataset
from repro.hw.config import AcceleratorConfig
from repro.plan.lowering import lower
from repro.sim.gnnie_executor import GNNIEExecutor


def test_batch_path_verifies_once_per_plan():
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
