"""Tests for the design-space exploration utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import AcceleratorConfig, design_preset
from repro.sim import (
    admissible_mac_allocation,
    pareto_front,
    sweep_buffer_sizes,
    sweep_designs,
    sweep_mac_allocations,
)
from repro.sim.design_space import DesignPoint


class TestSweepDesigns:
    @pytest.fixture(scope="class")
    def points(self, tiny_graph):
        configs = [design_preset(name) for name in ("A", "D", "E")]
        return sweep_designs(tiny_graph, "gcn", configs)

    def test_one_point_per_config(self, points):
        assert [point.name for point in points] == ["Design A", "Design D", "Design E (GNNIE)"]

    def test_fields_populated(self, points):
        for point in points:
            assert point.cycles > 0
            assert point.latency_seconds > 0
            assert point.area_mm2 > 0
            assert point.energy_joules > 0

    def test_more_macs_never_slower(self, points):
        design_a = next(p for p in points if p.name == "Design A")
        design_d = next(p for p in points if p.name == "Design D")
        assert design_d.cycles <= design_a.cycles
        assert design_d.area_mm2 > design_a.area_mm2

    def test_beta_versus_baseline(self, points):
        design_a = next(p for p in points if p.name == "Design A")
        design_e = next(p for p in points if p.name.startswith("Design E"))
        beta = design_e.beta_versus(design_a)
        assert beta >= 0
        # β against itself is undefined (no added MACs).
        import math

        assert math.isnan(design_a.beta_versus(design_a))


class TestCycleAreaProduct:
    def test_is_the_product_not_a_ratio(self):
        """Pin the renamed metric's semantics: cycles × mm², a cost scalar.

        The property was formerly (mis)named ``cycles_per_mm2`` while always
        computing the product.
        """
        point = _point(4, 1.0, 2.5)  # cycles=4, area=2.5 mm²
        assert point.cycle_area_product == pytest.approx(4 * 2.5)
        assert not hasattr(point, "cycles_per_mm2")


class TestAdmissibleMacAllocation:
    def test_paper_allocation_admissible(self):
        assert admissible_mac_allocation((4, 5, 6), group_sizes=(8, 4, 4), mac_budget=1280)

    def test_rejects_non_monotonic(self):
        assert not admissible_mac_allocation((6, 5, 4), group_sizes=(8, 4, 4), mac_budget=10_000)

    def test_rejects_over_budget(self):
        assert not admissible_mac_allocation((8, 8, 8), group_sizes=(8, 4, 4), mac_budget=1280)

    def test_rejects_shape_mismatch_and_nonpositive(self):
        assert not admissible_mac_allocation((4, 5), group_sizes=(8, 4, 4), mac_budget=1280)
        assert not admissible_mac_allocation((0, 1, 2), group_sizes=(8, 4, 4), mac_budget=1280)

    def test_grid_enumerates_only_admissible(self):
        for config in sweep_mac_allocations(mac_budget=1216):
            assert admissible_mac_allocation(
                config.macs_per_group, group_sizes=config.rows_per_group, mac_budget=1216
            )


class TestMacAllocationSweep:
    def test_respects_budget_and_monotonicity(self):
        configs = sweep_mac_allocations(mac_budget=1216, candidate_macs=(3, 4, 5, 6))
        assert configs  # at least one admissible allocation
        for config in configs:
            assert config.total_macs <= 1216
            assert list(config.macs_per_group) == sorted(config.macs_per_group)

    def test_paper_allocation_present_at_budget(self):
        configs = sweep_mac_allocations(mac_budget=1216, candidate_macs=(4, 5, 6))
        allocations = {config.macs_per_group for config in configs}
        assert (4, 5, 6) in allocations

    def test_budget_excludes_expensive_allocations(self):
        configs = sweep_mac_allocations(mac_budget=1024, candidate_macs=(4, 5, 6))
        assert all(config.total_macs <= 1024 for config in configs)
        assert all((6, 6, 6) != config.macs_per_group for config in configs)


class TestBufferSweepAndPareto:
    def test_buffer_sweep_shapes(self, tiny_graph):
        points = sweep_buffer_sizes(
            tiny_graph,
            "gcn",
            input_buffer_kib=(128, 512),
            output_buffer_kib=(1024,),
        )
        assert len(points) == 2
        assert {point.config.input_buffer_bytes for point in points} == {128 * 1024, 512 * 1024}

    def test_input_buffer_axis_changes_cycles_not_just_area(self, medium_graph):
        """The headline regression: explicit input-buffer sizes must reach
        the simulator.

        ``GNNIEExecutor.execute`` used to unconditionally re-apply the
        paper's per-dataset sizing, clobbering a sweep cell's explicit
        ``input_buffer_bytes`` while the area model still saw the override —
        so the input axis of a buffer sweep moved area but never cycles and
        "smallest buffer always wins" on the Pareto front.
        """
        small_kib, large_kib = 2, 64
        points = sweep_buffer_sizes(
            medium_graph,
            "gcn",
            input_buffer_kib=(small_kib, large_kib),
            output_buffer_kib=(1024,),
        )
        cycles = {p.config.input_buffer_bytes: p.cycles for p in points}
        areas = {p.config.input_buffer_bytes: p.area_mm2 for p in points}
        # Cycles respond to the input axis — the starved buffer refetches.
        assert cycles[small_kib * 1024] > cycles[large_kib * 1024]
        # Area still responds too (it always did).
        assert areas[small_kib * 1024] < areas[large_kib * 1024]

    def test_pareto_front_filters_dominated(self, tiny_graph):
        configs = [design_preset(name) for name in ("A", "B", "C", "D", "E")]
        points = sweep_designs(tiny_graph, "gcn", configs)
        front = pareto_front(points)
        assert front
        assert len(front) <= len(points)
        # No point on the front is dominated by another front point.
        for candidate in front:
            assert not any(
                other is not candidate
                and other.latency_seconds <= candidate.latency_seconds
                and other.area_mm2 <= candidate.area_mm2
                and (
                    other.latency_seconds < candidate.latency_seconds
                    or other.area_mm2 < candidate.area_mm2
                )
                for other in front
            )

    def test_front_sorted_by_latency(self, tiny_graph):
        configs = [design_preset(name) for name in ("A", "D", "E")]
        front = pareto_front(sweep_designs(tiny_graph, "gcn", configs))
        latencies = [point.latency_seconds for point in front]
        assert latencies == sorted(latencies)


def _point(index: int, latency: float, area: float) -> DesignPoint:
    return DesignPoint(
        name=f"P{index}",
        config=None,
        total_macs=index,
        area_mm2=area,
        cycles=index,
        latency_seconds=latency,
        energy_joules=1.0,
    )


def _pareto_front_all_pairs(points: list[DesignPoint]) -> list[DesignPoint]:
    """The pre-optimization O(n²) all-pairs domination oracle, verbatim."""
    front: list[DesignPoint] = []
    for candidate in points:
        dominated = any(
            other.latency_seconds <= candidate.latency_seconds
            and other.area_mm2 <= candidate.area_mm2
            and (
                other.latency_seconds < candidate.latency_seconds
                or other.area_mm2 < candidate.area_mm2
            )
            for other in points
        )
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda point: point.latency_seconds)


class TestParetoEquivalence:
    """The sort-then-scan front must match the old all-pairs definition."""

    @settings(max_examples=200, deadline=None)
    @given(
        coordinates=st.lists(
            st.tuples(
                # Small integer-valued grids force plenty of exact latency
                # and area ties, plus full (latency, area) duplicates.
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_matches_all_pairs_oracle_on_tied_grids(self, coordinates):
        points = [
            _point(index, float(latency), float(area))
            for index, (latency, area) in enumerate(coordinates)
        ]
        got = pareto_front(points)
        want = _pareto_front_all_pairs(points)
        assert [point.name for point in got] == [point.name for point in want]

    @settings(max_examples=100, deadline=None)
    @given(
        coordinates=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_matches_all_pairs_oracle_on_float_points(self, coordinates):
        points = [
            _point(index, latency, area)
            for index, (latency, area) in enumerate(coordinates)
        ]
        got = pareto_front(points)
        want = _pareto_front_all_pairs(points)
        assert [point.name for point in got] == [point.name for point in want]

    def test_duplicates_of_a_front_point_all_survive(self):
        points = [_point(0, 1.0, 2.0), _point(1, 1.0, 2.0), _point(2, 3.0, 1.0)]
        front = pareto_front(points)
        assert [point.name for point in front] == ["P0", "P1", "P2"]

    def test_equal_latency_higher_area_is_dominated(self):
        points = [_point(0, 1.0, 2.0), _point(1, 1.0, 3.0)]
        assert [point.name for point in pareto_front(points)] == ["P0"]

    def test_area_tie_at_larger_latency_is_dominated(self):
        points = [_point(0, 1.0, 2.0), _point(1, 5.0, 2.0)]
        assert [point.name for point in pareto_front(points)] == ["P0"]

    def test_empty_input(self):
        assert pareto_front([]) == []
