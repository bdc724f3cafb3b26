"""Common result type, base class and table helpers for the baseline cost models.

Every platform model is also a plan *executor*
(:class:`~repro.plan.executor.Executor`): :meth:`PlatformModel.execute`
prices the same :class:`~repro.plan.ir.InferencePlan` the GNNIE simulator
runs, via the shared :func:`~repro.baselines.workload.workload_from_plan`
derivation, and applies the platform's roofline-style cost model to it.

Each platform module holds one frozen table with every number its cost
model reads, built with :func:`repro.hw.config.entry`.  Each entry records
its source in its field metadata: either a published architecture parameter
of a platform named in PAPERS.md, or :data:`~repro.hw.config.FIT`, a value
chosen so the model lands near measured behaviour.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.baselines.workload import WorkloadEstimate, workload_from_plan
from repro.graph.graph import Graph
from repro.obs.tracer import NULL_TRACER
from repro.plan.ir import InferencePlan

__all__ = ["BYTES_PER_VALUE", "FLOPS_PER_MAC", "PlatformModel", "PlatformResult"]

#: Bytes per value: every baseline moves its tensors as fp32.
BYTES_PER_VALUE = 4.0
#: FLOPs per multiply-accumulate.
FLOPS_PER_MAC = 2.0


@dataclass(frozen=True)
class PlatformResult:
    """Latency and energy of one inference on one baseline platform."""

    platform: str
    dataset: str
    model: str
    latency_seconds: float
    energy_joules: float

    @property
    def inferences_per_kilojoule(self) -> float:
        if self.energy_joules <= 0:
            return float("inf")
        return 1000.0 / self.energy_joules


class PlatformModel(ABC):
    """A roofline-style cost model of a baseline platform."""

    #: Name used in reports ("PyG-CPU", "PyG-GPU", "HyGCN", "AWB-GCN").
    name: str = "platform"
    #: GNN families the platform supports (HyGCN cannot run GATs; AWB-GCN
    #: runs GCN only).
    supported_families: tuple[str, ...] = ("gcn", "gat", "graphsage", "ginconv", "diffpool")
    #: The platform module's frozen table.  Its ``average_power_watts``
    #: entry prices energy.
    table: Any
    #: Span tracer (``repro.obs``); the shared no-op by default, overridden
    #: per instance when a profiling/fleet run wants platform spans.
    tracer = NULL_TRACER

    def supports(self, family: str) -> bool:
        return family.lower() in self.supported_families

    @abstractmethod
    def latency_seconds(self, graph: Graph, workload: WorkloadEstimate) -> float:
        """Inference latency of the workload on this platform."""

    def evaluate(self, graph: Graph, workload: WorkloadEstimate) -> PlatformResult:
        """Latency + energy for one workload."""
        if not self.supports(workload.family):
            raise ValueError(f"{self.name} does not support {workload.family!r}")
        latency = self.latency_seconds(graph, workload)
        return PlatformResult(
            platform=self.name,
            dataset=workload.dataset,
            model=workload.family.upper(),
            latency_seconds=latency,
            energy_joules=latency * self.table.average_power_watts,
        )

    def execute(
        self, plan: InferencePlan, graph: Graph, config: object | None = None
    ) -> PlatformResult:
        """Executor protocol: price an inference plan on this platform.

        ``config`` is accepted for protocol compatibility and ignored — the
        baseline platforms model fixed published hardware.  The workload
        comes from :func:`~repro.baselines.workload.workload_from_plan`,
        which verifies the plan and memoizes the derivation on the graph's
        pricing context, so every config of a sweep group shares one.
        """
        del config
        with self.tracer.span(
            f"platform:{self.name}",
            category="inference",
            platform=self.name,
            dataset=graph.name,
            family=plan.family,
        ) as span:
            result = self.evaluate(graph, workload_from_plan(plan, graph))
        span.set(latency_s=result.latency_seconds, energy_j=result.energy_joules)
        return result
