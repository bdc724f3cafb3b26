"""Top-level GNNIE inference simulator (compatibility wrapper).

:class:`GNNIESimulator` is the historical entry point for whole-inference
simulation.  Since the plan-IR refactor it is a thin *lower-then-execute*
wrapper: the GNN family is lowered to a backend-neutral
:class:`~repro.plan.ir.InferencePlan` by the rules registered in
:mod:`repro.models.lowering`, and the plan is run by the
:class:`~repro.sim.gnnie_executor.GNNIEExecutor` per-op handlers.  This
module contains no family-specific control flow — adding a GNN family is a
new lowering rule, and adding a cost model is a new executor, neither of
which touches this file.

``repro.sim.design_space``, ``repro.analysis``, the CLI and the benchmark
suite all flow through this wrapper unchanged.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.hw.config import AcceleratorConfig
from repro.hw.energy import AreaModel, EnergyModel
from repro.models.zoo import ModelConfig, model_config
from repro.plan.lowering import lower_model
from repro.sim.gnnie_executor import GNNIEExecutor
from repro.sim.results import InferenceResult

__all__ = ["GNNIESimulator"]


class GNNIESimulator:
    """Performance and energy simulator for GNNIE inference."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        *,
        energy_model: EnergyModel | None = None,
        area_model: AreaModel | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self._executor = GNNIEExecutor(
            config,
            energy_model=energy_model,
            area_model=area_model,
            tracer=tracer,
            metrics=metrics,
        )

    @property
    def tracer(self):
        """Span tracer threaded into the executor (``repro.obs``)."""
        return self._executor.tracer

    @property
    def metrics(self):
        """Metrics registry threaded into the executor (``repro.obs``)."""
        return self._executor.metrics

    @property
    def config(self) -> AcceleratorConfig:
        return self._executor.config

    @property
    def energy_model(self) -> EnergyModel:
        return self._executor.energy_model

    @property
    def area_model(self) -> AreaModel:
        return self._executor.area_model

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        graph: Graph,
        family: str,
        *,
        config: AcceleratorConfig | None = None,
        model_cfg: ModelConfig | None = None,
        out_features: int | None = None,
    ) -> InferenceResult:
        """Lower one GNN family for ``graph`` and execute the plan.

        Args:
            graph: Dataset graph (features + adjacency).
            family: GNN family name ("gcn", "gat", "graphsage", "ginconv",
                "diffpool", or any family with a registered lowering rule).
            config: Optional accelerator configuration override; defaults to
                the simulator's configuration.  A configuration whose
                ``input_buffer_bytes`` is the ``None`` auto-sizing sentinel
                gets the paper's per-dataset input-buffer sizing; an explicit
                capacity is simulated as-is.
            model_cfg: Optional Table III configuration override.
            out_features: Output width of the last layer (defaults to the
                dataset's label count).
        """
        mdl = model_cfg or model_config(family)
        labels = out_features if out_features is not None else max(graph.num_label_classes, 2)
        plan = lower_model(mdl, graph.feature_length, labels)
        return self._executor.execute(plan, graph, config)

    def chip_area_mm2(self, config: AcceleratorConfig | None = None) -> float:
        return self._executor.chip_area_mm2(config)
