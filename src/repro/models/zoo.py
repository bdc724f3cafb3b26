"""Standard model configurations used by the paper's evaluation (Table III).

Every GNN is evaluated as a two-layer model whose hidden layer has 128
channels (the paper aligns with HyGCN's convention of 128 hidden channels for
cross-platform comparison).  :func:`build_model` constructs the functional
reference model for a given family and dataset shape; the same configuration
object drives the accelerator simulation, so the performance and functional
paths always agree on layer dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.base import GNNModel
from repro.models.diffpool import DiffPoolModel
from repro.models.gat import GATLayer
from repro.models.gcn import GCNLayer
from repro.models.ginconv import GINConvLayer
from repro.models.graphsage import GraphSAGELayer

__all__ = ["ModelConfig", "MODEL_FAMILIES", "model_config", "build_model", "TABLE3_CONFIGS"]


@dataclass(frozen=True)
class ModelConfig:
    """One row of Table III: layer widths and aggregation settings."""

    family: str
    hidden_features: int = 128
    num_layers: int = 2
    aggregator: str = "sum"
    sample_size: int | None = None
    mlp_hidden: int | None = None

    def layer_dimensions(self, in_features: int, out_features: int) -> list[tuple[int, int]]:
        """(in, out) dimensions of each layer for a given dataset shape."""
        dims = []
        current = in_features
        for index in range(self.num_layers):
            is_last = index == self.num_layers - 1
            out = out_features if is_last else self.hidden_features
            dims.append((current, out))
            current = out
        return dims


#: Table III configurations keyed by family name.
TABLE3_CONFIGS: dict[str, ModelConfig] = {
    "gcn": ModelConfig(family="gcn", aggregator="sum"),
    "gat": ModelConfig(family="gat", aggregator="sum"),
    "graphsage": ModelConfig(family="graphsage", aggregator="max", sample_size=25),
    "ginconv": ModelConfig(family="ginconv", aggregator="sum", mlp_hidden=128),
    "diffpool": ModelConfig(family="diffpool", aggregator="sum"),
}

#: GNN families evaluated in the paper (Fig. 12, Table III).
MODEL_FAMILIES = tuple(TABLE3_CONFIGS)


def model_config(family: str) -> ModelConfig:
    """Look up the Table III configuration for a GNN family."""
    key = family.strip().lower()
    if key not in TABLE3_CONFIGS:
        raise KeyError(f"unknown GNN family {family!r}; known: {sorted(TABLE3_CONFIGS)}")
    return TABLE3_CONFIGS[key]


def build_model(
    family: str,
    in_features: int,
    out_features: int,
    *,
    config: ModelConfig | None = None,
    seed: int = 0,
):
    """Build the functional reference model for a GNN family.

    Returns a :class:`~repro.models.base.GNNModel` for the message-passing
    families and a :class:`~repro.models.diffpool.DiffPoolModel` for
    DiffPool (whose output is a coarsened graph rather than per-vertex
    features).
    """
    cfg = config if config is not None else model_config(family)
    family_key = cfg.family.lower()
    if family_key == "diffpool":
        return DiffPoolModel(in_features, cfg.hidden_features, seed=seed)
    layers = []
    for index, (dim_in, dim_out) in enumerate(cfg.layer_dimensions(in_features, out_features)):
        is_last = index == cfg.num_layers - 1
        activation = "none" if is_last else "relu"
        layer_seed = seed + 13 * index
        if family_key == "gcn":
            layers.append(GCNLayer(dim_in, dim_out, activation=activation, seed=layer_seed))
        elif family_key == "gat":
            layers.append(GATLayer(dim_in, dim_out, activation=activation, seed=layer_seed))
        elif family_key == "graphsage":
            layers.append(
                GraphSAGELayer(
                    dim_in,
                    dim_out,
                    aggregator=cfg.aggregator,
                    sample_size=cfg.sample_size or 25,
                    activation=activation,
                    seed=layer_seed,
                )
            )
        elif family_key == "ginconv":
            layers.append(
                GINConvLayer(
                    dim_in,
                    dim_out,
                    hidden_features=cfg.mlp_hidden,
                    activation=activation,
                    seed=layer_seed,
                )
            )
        else:
            raise KeyError(f"unknown GNN family {family!r}")
    return GNNModel(layers, name=family_key.upper())
