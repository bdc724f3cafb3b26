"""Functional (NumPy) reference implementations of the GNNs in Table I."""

from repro.models.base import (
    GNNLayer,
    GNNModel,
    apply_activation,
    symmetric_normalization_coefficients,
)
from repro.models.diffpool import DiffPoolLevel, DiffPoolModel, DiffPoolOutput
from repro.models.gat import (
    GATLayer,
    gat_attention_scores_naive,
    gat_attention_scores_reordered,
)
from repro.models.gcn import GCNLayer
from repro.models.ginconv import GINConvLayer, gin_graph_readout
from repro.models.graphsage import GraphSAGELayer, NeighborSampler
from repro.models.lowering import (
    lower_diffpool,
    lower_gat,
    lower_gcn,
    lower_ginconv,
    lower_graphsage,
)
from repro.models.layers import (
    MLP,
    glorot_init,
    leaky_relu,
    relu,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    sigmoid,
    softmax,
)
from repro.models.quantization import (
    QuantizedTensor,
    dequantize_tensor,
    quantization_error,
    quantize_tensor,
    quantized_model_agreement,
)
from repro.models.training import AccuracyResult, accuracy_study, micro_f1
from repro.models.zoo import (
    MODEL_FAMILIES,
    TABLE3_CONFIGS,
    ModelConfig,
    build_model,
    model_config,
)

__all__ = [
    "GNNLayer",
    "GNNModel",
    "apply_activation",
    "symmetric_normalization_coefficients",
    "GCNLayer",
    "GATLayer",
    "gat_attention_scores_naive",
    "gat_attention_scores_reordered",
    "GraphSAGELayer",
    "NeighborSampler",
    "GINConvLayer",
    "gin_graph_readout",
    "DiffPoolLevel",
    "DiffPoolModel",
    "DiffPoolOutput",
    "MLP",
    "relu",
    "leaky_relu",
    "sigmoid",
    "softmax",
    "segment_sum",
    "segment_max",
    "segment_mean",
    "segment_softmax",
    "glorot_init",
    "AccuracyResult",
    "QuantizedTensor",
    "quantize_tensor",
    "dequantize_tensor",
    "quantization_error",
    "quantized_model_agreement",
    "accuracy_study",
    "micro_f1",
    "ModelConfig",
    "MODEL_FAMILIES",
    "TABLE3_CONFIGS",
    "build_model",
    "model_config",
    "lower_gcn",
    "lower_gat",
    "lower_graphsage",
    "lower_ginconv",
    "lower_diffpool",
]
