"""Executor protocol and backend table.

An *executor* consumes an :class:`~repro.plan.ir.InferencePlan` together
with a concrete graph and returns that backend's result object — the GNNIE
simulator produces an :class:`~repro.sim.results.InferenceResult`, the
baseline platforms a :class:`~repro.baselines.platform.PlatformResult`.
``executor("hygcn")`` is the supported way to obtain one by name::

    from repro.plan import executor, lower

    plan = lower("gcn", graph)
    result = executor("gnnie").execute(plan, graph)

Adding a backend is one entry in :func:`_backends`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

__all__ = ["Executor", "executor", "executor_names"]


@runtime_checkable
class Executor(Protocol):
    """Anything that can run an inference plan on a graph.

    Executors may additionally expose a ``tracer`` attribute (a
    :class:`repro.obs.Tracer`, defaulting to the shared no-op
    ``NULL_TRACER``); callers that profile an execution — ``repro
    profile``, the sweep fleet's ``--trace`` path — set it before calling
    :meth:`execute` so the backend emits its span hierarchy.  Both built-in
    backends (the GNNIE executor and the baseline platforms) support this.
    """

    #: Table / report name of the backend.
    name: str

    def execute(self, plan: Any, graph: Any, config: Any | None = None) -> Any:
        """Execute ``plan`` on ``graph``; ``config`` overrides backend knobs."""


def _backends() -> dict[str, Callable[[], Executor]]:
    """Every backend by name, sorted.  The imports are local so importing
    ``repro.plan`` does not pull in the cost models."""
    from repro.baselines import (
        AWBGCNModel,
        EnGNModel,
        HyGCNModel,
        PyGCPUModel,
        PyGGPUModel,
    )
    from repro.sim.gnnie_executor import GNNIEExecutor

    return {
        "awb-gcn": AWBGCNModel,
        "engn": EnGNModel,
        "gnnie": GNNIEExecutor,
        "hygcn": HyGCNModel,
        "pyg-cpu": PyGCPUModel,
        "pyg-gpu": PyGGPUModel,
    }


def executor(name: str) -> Executor:
    """Instantiate the backend named ``name``."""
    backends = _backends()
    key = name.strip().lower()
    if key not in backends:
        raise KeyError(f"no executor named {name!r}; known: {list(backends)}")
    return backends[key]()


def executor_names() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(_backends())
