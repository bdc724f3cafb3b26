"""Differential oracle for the cache layer.

Small, obviously correct pure-Python references of every policy
:func:`repro.cache.simulate_policy` runs: the degree-aware controller
(paper, Section VI) and the id-order edge walk behind the four baselines.
Over random graphs, capacities from 1 (the pairwise fallback) and γ from 0
(deadlocks), every :class:`~repro.cache.CacheSimulationResult` field must
match: the counters, the four iteration columns, the α snapshots and the
trace.  The vectorized controller is only allowed to be faster.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import EVICT, MISS, POLICY_NAMES, simulate_policy
from repro.graph import CSRGraph

BYTES_PER_VERTEX = 48
INDEX_BYTES = 4


def reference_degree_aware(adjacency, capacity_vertices, gamma):
    """GNNIE's policy, one Python set operation at a time."""
    num_vertices = adjacency.num_vertices
    edges = [(u, int(v)) for u in range(num_vertices) for v in adjacency.neighbors(u) if u < v]
    incident = [[] for _ in range(num_vertices)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    alpha = [len(ids) for ids in incident]
    degrees = adjacency.degrees()
    order = sorted(range(num_vertices), key=lambda v: (-degrees[v], v))
    capacity = min(capacity_vertices, num_vertices)
    replacement = min(max(1, capacity_vertices // 8), capacity)
    out = {"num_rounds": 0, "vertex_fetches": 0, "alpha_writeback_bytes": 0, "deadlock_events": 0}
    log, evictions, processed = [], [], set()
    snapshots = [[a for a in alpha if a > 0]]

    def fetch(count):
        nonlocal position
        taken = []
        while len(taken) < count and position < len(order):
            vertex = order[position]
            position += 1
            if alpha[vertex] > 0 and vertex not in resident:
                taken.append(vertex)
        out["vertex_fetches"] += len(taken)
        resident.update(taken)
        return taken

    def process(vertices):
        ready = {e for v in vertices for e in incident[v]
                 if e not in processed and set(edges[e]) <= resident}
        per_vertex = {}
        for e in ready:
            processed.add(e)
            for v in edges[e]:
                alpha[v] -= 1
                per_vertex[v] = per_vertex.get(v, 0) + 1
        return len(ready), max(per_vertex.values(), default=0)

    while len(processed) < len(edges):
        out["num_rounds"] += 1
        resident, position, progress = set(), 0, False
        newly = fetch(capacity)
        while True:
            done, most = process(newly)
            progress = progress or done > 0
            exhausted = not any(alpha[v] > 0 for v in order[position:])
            newly = []
            if not exhausted:
                residents = sorted(resident)
                victims = [v for v in residents if alpha[v] == 0]
                victims += [v for v in residents if 0 < alpha[v] < gamma]
                victims = victims[:replacement]
                if not victims:
                    out["deadlock_events"] += 1
                    victims = sorted(residents, key=lambda v: (alpha[v], v))[:replacement]
                resident.difference_update(victims)
                evictions += victims
                out["alpha_writeback_bytes"] += INDEX_BYTES * sum(alpha[v] > 0 for v in victims)
                newly = fetch(len(victims))
            log.append((out["num_rounds"], done, most, len(resident)))
            if exhausted or (not newly and done == 0):
                break
        out["alpha_writeback_bytes"] += INDEX_BYTES * sum(alpha[v] > 0 for v in resident)
        snapshots.append([a for a in alpha if a > 0])
        if not progress and len(processed) < len(edges):
            # Pairwise fallback: fetch both endpoints of every remaining edge.
            remaining = [e for e in range(len(edges)) if e not in processed]
            endpoints = [v for e in remaining for v in edges[e]]
            for v in endpoints:
                alpha[v] -= 1
            processed.update(remaining)
            out["vertex_fetches"] += len(endpoints)
            log.append((out["num_rounds"], len(remaining), max(map(endpoints.count, endpoints)), 2))
            break
    positions = [0] * num_vertices
    for index, vertex in enumerate(order):
        positions[vertex] = index
    out.update(total_edges_processed=len(processed), random_accesses=0, log=log)
    out["trace"] = ([EVICT] * len(evictions), evictions, positions)
    out["alpha_round_snapshots"] = snapshots
    return out


def reference_id_order_walk(adjacency, capacity, policy):
    """The baselines' id-order walk over a plain list kept in eviction order."""
    pinned = []
    if policy == "static_partition":
        degrees = adjacency.degrees()
        by_degree = sorted(range(adjacency.num_vertices), key=lambda v: (-degrees[v], v))
        pinned = by_degree[: max(1, capacity - 1)]
    slots = max(1, capacity - len(pinned))
    buffer, events = [], []
    out = {"num_rounds": 1, "vertex_fetches": 0, "random_accesses": 0, "alpha_writeback_bytes": 0,
           "deadlock_events": 0, "total_edges_processed": 0}

    def touch(vertex, hit_only):
        if vertex in pinned:
            return True
        if vertex in buffer:
            if policy != "vertex_order":  # FIFO never refreshes
                buffer.remove(vertex)
                buffer.append(vertex)
            return True
        if hit_only:
            return False
        if len(buffer) >= slots:
            events.append((EVICT, buffer.pop(-1 if policy == "mru" else 0)))
        buffer.append(vertex)
        return True

    for vertex in range(adjacency.num_vertices):
        out["vertex_fetches"] += 1
        touch(vertex, hit_only=False)
        for neighbor in map(int, adjacency.neighbors(vertex)):
            out["total_edges_processed"] += neighbor > vertex
            if not touch(neighbor, hit_only=True):
                out["random_accesses"] += 1
                events.append((MISS, neighbor))
                touch(neighbor, hit_only=False)
    out["log"] = [(1, out["total_edges_processed"], adjacency.max_degree(),
                   min(capacity, adjacency.num_vertices))]
    out["trace"] = ([kind for kind, _ in events], [vertex for _, vertex in events],
                    list(range(adjacency.num_vertices)))
    out["alpha_round_snapshots"] = []
    return out


def reference(policy, adjacency, capacity, gamma):
    if policy == "degree_aware":
        out = reference_degree_aware(adjacency, capacity, gamma)
    else:
        out = reference_id_order_walk(adjacency, capacity, policy)
    out["sequential_fetch_bytes"] = out["vertex_fetches"] * BYTES_PER_VERTEX
    out["random_access_bytes"] = out["random_accesses"] * BYTES_PER_VERTEX
    return out


def assert_matches_reference(result, expected, policy, num_vertices):
    log = np.array(expected["log"], dtype=np.int64).reshape(-1, 4)
    columns = ("round_index", "edges_processed", "max_edges_per_vertex", "resident_vertices")
    for index, name in enumerate(columns):
        column = getattr(result, name)
        assert column.dtype == np.int64, name
        np.testing.assert_array_equal(column, log[:, index], err_msg=name)
    assert result.num_iterations == len(log)
    snapshots = result.alpha_round_snapshots
    assert [s.tolist() for s in snapshots] == expected["alpha_round_snapshots"]
    kinds, vertices, positions = expected["trace"]
    trace = result.trace
    assert trace.kinds.tolist() == kinds
    assert trace.vertices.tolist() == vertices
    assert trace.stream_positions.tolist() == positions
    assert (trace.policy, trace.bytes_per_vertex, trace.num_vertices) == (
        policy, BYTES_PER_VERTEX, num_vertices
    )
    assert result.miss_path is None
    checked = {*columns, "alpha_round_snapshots", "trace", "miss_path"}
    for field in fields(result):
        if field.name not in checked:
            assert getattr(result, field.name) == expected[field.name], field.name


@st.composite
def graphs(draw):
    num_vertices = draw(st.integers(min_value=1, max_value=100))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * num_vertices))
    return CSRGraph.from_edge_list(edges, num_vertices=num_vertices, symmetric=True)


@settings(max_examples=120, deadline=None)
@given(
    adjacency=graphs(),
    capacity=st.integers(min_value=1, max_value=40),
    gamma=st.integers(min_value=0, max_value=8),
    policy=st.sampled_from(POLICY_NAMES),
)
def test_simulate_policy_matches_reference(adjacency, capacity, gamma, policy):
    result = simulate_policy(
        policy,
        adjacency,
        capacity,
        bytes_per_vertex=BYTES_PER_VERTEX,
        gamma=gamma,
        collect_trace=True,
    )
    expected = reference(policy, adjacency, capacity, gamma)
    assert_matches_reference(result, expected, policy, adjacency.num_vertices)


@settings(max_examples=100, deadline=None)
@given(
    adjacency=graphs(),
    capacity=st.integers(min_value=1, max_value=12),
    gamma=st.integers(min_value=0, max_value=3),
)
def test_degree_aware_controller_matches_reference(adjacency, capacity, gamma):
    """The degree-aware controller alone, at the small capacities and γ
    where Rounds, deadlocks and the pairwise fallback all occur."""
    result = simulate_policy(
        "degree_aware",
        adjacency,
        capacity,
        bytes_per_vertex=BYTES_PER_VERTEX,
        gamma=gamma,
        collect_trace=True,
    )
    expected = reference("degree_aware", adjacency, capacity, gamma)
    assert_matches_reference(result, expected, "degree_aware", adjacency.num_vertices)


def test_reference_covers_deadlocks_and_the_pairwise_fallback():
    """Pinned cases for the two rare paths the random search must reach."""
    path = CSRGraph.from_edge_list(
        [(v, v + 1) for v in range(9)], num_vertices=10, symmetric=True
    )
    two_stars = CSRGraph.from_edge_list(
        [(0, leaf) for leaf in range(2, 8)] + [(1, leaf) for leaf in range(8, 14)],
        num_vertices=14,
        symmetric=True,
    )
    for adjacency, capacity, gamma in ((path, 1, 5), (two_stars, 2, 0)):
        result = simulate_policy(
            "degree_aware",
            adjacency,
            capacity,
            bytes_per_vertex=BYTES_PER_VERTEX,
            gamma=gamma,
            collect_trace=True,
        )
        expected = reference("degree_aware", adjacency, capacity, gamma)
        assert_matches_reference(result, expected, "degree_aware", adjacency.num_vertices)
    # Capacity 1 never co-locates two endpoints: one pairwise-fallback
    # iteration (two residents) processes every edge.
    fallback = simulate_policy("degree_aware", path, 1)
    assert fallback.resident_vertices[-1] == 2
    assert fallback.edges_processed[-1] == 9
    # The two unconnected hubs fill the buffer first; with γ = 0 neither is
    # an eviction candidate, so the controller must break the deadlock.
    assert simulate_policy("degree_aware", two_stars, 2, gamma=0).deadlock_events > 0
