"""Property-based invariants of the plan IR and the GNNIE cost model.

Across randomized :class:`~repro.models.zoo.ModelConfig`\\ s and synthetic
graphs, the lower-then-execute pipeline must satisfy structural invariants
no matter which family, layer count or graph shape hypothesis draws:

* cycles, latency and energy are positive and finite,
* per-phase cycles (plus the global preprocessing charge) sum exactly to
  the reported total,
* energy is monotone non-decreasing in edge count for the families that
  aggregate over the full adjacency — removing edges can never make
  inference cost more energy (GraphSAGE is excluded by design: neighbor
  sampling re-draws when the adjacency changes, so a subgraph can sample a
  marginally more expensive subset),
* lowering is a pure function: the same configuration and shape always
  produce an identical plan.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph
from repro.graph.graph import Graph
from repro.models.zoo import MODEL_FAMILIES, ModelConfig
from repro.plan.lowering import lower, lower_model
from repro.sim import GNNIEExecutor
from repro.sparse.feature_matrix import generate_sparse_features


#: Families whose aggregation reads the full adjacency; GraphSAGE's sampled
#: adjacency is a random function of the graph structure, so edge-count
#: monotonicity does not hold for it (dropping an edge changes which
#: neighbors the sampler draws everywhere else).
FULL_ADJACENCY_FAMILIES = tuple(f for f in MODEL_FAMILIES if f != "graphsage")


@st.composite
def model_configs(draw, families=MODEL_FAMILIES) -> ModelConfig:
    """Randomized Table III-like configurations across the given families."""
    family = draw(st.sampled_from(families))
    return ModelConfig(
        family=family,
        hidden_features=draw(st.integers(min_value=4, max_value=48)),
        num_layers=draw(st.integers(min_value=1, max_value=3)),
        aggregator=draw(st.sampled_from(("sum", "max"))),
        sample_size=draw(st.one_of(st.none(), st.integers(min_value=2, max_value=16))),
        mlp_hidden=draw(st.one_of(st.none(), st.integers(min_value=4, max_value=32))),
    )


@st.composite
def graph_cases(draw) -> Graph:
    """Small random power-law graphs with sparse features."""
    num_vertices = draw(st.integers(min_value=16, max_value=80))
    num_edges = draw(
        st.integers(min_value=num_vertices, max_value=4 * num_vertices)
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    adjacency = power_law_graph(num_vertices, num_edges, exponent=2.3, seed=seed)
    features = generate_sparse_features(
        num_vertices,
        draw(st.integers(min_value=8, max_value=48)),
        draw(st.floats(min_value=0.5, max_value=0.95)),
        seed=seed + 3,
    )
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=np.zeros(num_vertices, dtype=np.int64),
        name="prop",
        num_label_classes=draw(st.integers(min_value=2, max_value=8)),
    )


@settings(max_examples=20, deadline=None)
@given(cfg=model_configs(), graph=graph_cases())
def test_cycles_and_energy_positive_and_finite(cfg, graph):
    result = GNNIEExecutor().execute(lower(cfg.family, graph, config=cfg), graph)
    assert result.total_cycles > 0
    assert math.isfinite(result.latency_seconds) and result.latency_seconds > 0
    assert math.isfinite(result.energy_joules) and result.energy_joules > 0
    assert result.total_mac_operations > 0


@settings(max_examples=20, deadline=None)
@given(cfg=model_configs(), graph=graph_cases())
def test_phase_cycles_sum_to_total(cfg, graph):
    result = GNNIEExecutor().execute(lower(cfg.family, graph, config=cfg), graph)
    phase_sum = sum(
        phase.total_cycles for layer in result.layers for phase in layer.phases()
    )
    assert phase_sum + result.global_preprocessing_cycles == result.total_cycles
    # And within every phase the cycle components are non-negative.
    for layer in result.layers:
        for phase in layer.phases():
            assert phase.compute_cycles >= 0
            assert phase.memory_stall_cycles >= 0
            assert phase.sfu_cycles >= 0
            assert phase.preprocessing_cycles >= 0


@settings(max_examples=15, deadline=None)
@given(
    cfg=model_configs(families=FULL_ADJACENCY_FAMILIES),
    num_vertices=st.integers(min_value=16, max_value=64),
    degree=st.integers(min_value=2, max_value=6),
    drop_fraction=st.floats(min_value=0.05, max_value=0.8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_energy_monotone_in_edge_count(cfg, num_vertices, degree, drop_fraction, seed):
    """Removing edges (same vertices/features) never increases energy."""
    adjacency = power_law_graph(
        num_vertices, num_vertices * degree // 2, exponent=2.3, seed=seed
    )
    undirected = adjacency.edge_array()
    undirected = undirected[undirected[:, 0] < undirected[:, 1]]
    rng = np.random.default_rng(seed + 1)
    kept = rng.choice(
        len(undirected),
        size=max(1, int(len(undirected) * (1 - drop_fraction))),
        replace=False,
    )
    subset = undirected[np.sort(kept)]
    features = generate_sparse_features(num_vertices, 24, 0.85, seed=seed + 3)
    labels = np.zeros(num_vertices, dtype=np.int64)

    def build(edges) -> Graph:
        return Graph(
            adjacency=CSRGraph.from_edge_list(
                edges.tolist(), num_vertices=num_vertices, symmetric=True
            ),
            features=features,
            labels=labels,
            name="prop",
            num_label_classes=4,
        )

    full_graph, sub_graph = build(undirected), build(subset)
    plan = lower(cfg.family, full_graph, config=cfg)  # both graphs share one shape
    full = GNNIEExecutor().execute(plan, full_graph)
    sub = GNNIEExecutor().execute(plan, sub_graph)
    assert sub.energy_joules <= full.energy_joules * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    cfg=model_configs(),
    in_features=st.integers(min_value=4, max_value=256),
    out_features=st.integers(min_value=2, max_value=64),
)
def test_lowering_is_deterministic(cfg, in_features, out_features):
    first = lower_model(cfg, in_features, out_features)
    second = lower_model(cfg, in_features, out_features)
    # Frozen dataclasses all the way down: structural equality is exact.
    assert first == second
    assert first.to_json() == second.to_json()
    # And the plan's layer arithmetic is self-consistent.
    assert first.in_features == in_features
    assert first.out_features == out_features
    assert all(layer.ops for layer in first.layers)
