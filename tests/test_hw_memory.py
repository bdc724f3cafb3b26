"""Tests for the DRAM timing and energy/area functions."""

from __future__ import annotations

import pytest

from repro.hw import GNNIE_TABLE, AcceleratorConfig, EnergyBreakdown
from repro.hw.dram import dram_bytes_per_cycle, random_transfer_cycles, sequential_transfer_cycles
from repro.hw.energy import (
    buffer_energy,
    chip_area_mm2,
    dram_energy,
    mac_energy,
    sfu_energy,
    static_energy,
)

T = GNNIE_TABLE


class TestHBMModel:
    def test_sequential_transfer_cycles(self):
        bytes_per_cycle = 256e9 / 1.3e9
        assert sequential_transfer_cycles(T, int(bytes_per_cycle * 10)) == 10
        assert sequential_transfer_cycles(T, 0) == 0

    def test_random_slower_than_sequential_per_byte(self):
        sequential = sequential_transfer_cycles(T, 64 * 1000)
        random = random_transfer_cycles(T, 1000, bytes_per_access=64)
        assert random > sequential

    def test_random_parallelism_amortizes_penalty(self):
        granule = GNNIE_TABLE.random_access_granularity_bytes
        for accesses in (1, 7, 1000):
            penalty = random_transfer_cycles(T, accesses) - sequential_transfer_cycles(
                T, accesses * granule
            )
            assert penalty == -(
                -accesses
                * GNNIE_TABLE.random_access_penalty_cycles
                // GNNIE_TABLE.random_access_parallelism
            )

    def test_bytes_per_cycle(self):
        assert dram_bytes_per_cycle(T) == pytest.approx(256e9 / 1.3e9)

    def test_sequential_rounds_partial_cycles_up(self):
        assert sequential_transfer_cycles(T, 1) == 1
        whole = int(dram_bytes_per_cycle(T))
        assert sequential_transfer_cycles(T, whole) == 1
        assert sequential_transfer_cycles(T, whole + 1) == 2

    def test_random_transfer_cycles_exact(self):
        # 10 accesses x 40 cycles of activation over 8 in flight, plus
        # 10 x 32-byte granules streamed at ~197 bytes per cycle.
        assert random_transfer_cycles(T, 10) == 50 + 2

    def test_random_access_moves_at_least_one_granule(self):
        assert random_transfer_cycles(T, 100, bytes_per_access=8) == (
            random_transfer_cycles(T, 100, bytes_per_access=32)
        )
        assert random_transfer_cycles(T, 100, bytes_per_access=256) > (
            random_transfer_cycles(T, 100, bytes_per_access=32)
        )

    def test_no_random_accesses_cost_nothing(self):
        assert random_transfer_cycles(T, 0) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            sequential_transfer_cycles(T, -1)
        with pytest.raises(ValueError):
            random_transfer_cycles(T, -1)


class TestEnergyAndArea:
    def test_breakdown_totals(self):
        breakdown = EnergyBreakdown(mac_pj=10, dram_input_pj=5, dram_output_pj=15, static_pj=3)
        assert breakdown.dram_pj == 20
        assert breakdown.total_pj == 33
        assert breakdown.total_joules == pytest.approx(33e-12)

    def test_breakdown_addition(self):
        first = EnergyBreakdown(mac_pj=1, input_buffer_pj=2)
        second = EnergyBreakdown(mac_pj=3, dram_weight_pj=4)
        combined = first + second
        assert combined.mac_pj == 4
        assert combined.input_buffer_pj == 2
        assert combined.dram_weight_pj == 4

    def test_breakdown_as_dict(self):
        keys = EnergyBreakdown().as_dict()
        assert "total_pj" in keys and "dram_output_pj" in keys

    def test_energy_model_components(self):
        assert mac_energy(T, 100) == pytest.approx(100 * GNNIE_TABLE.mac_energy_pj)
        assert dram_energy(T, 1) == pytest.approx(8 * GNNIE_TABLE.dram_pj_per_bit)
        assert buffer_energy(T, "output", 10) > buffer_energy(T, "weight", 10)
        with pytest.raises(ValueError, match="unknown buffer 'cache'"):
            buffer_energy(T, "cache", 10)

    def test_dram_energy_is_hbm2_per_bit(self):
        assert GNNIE_TABLE.dram_pj_per_bit == 3.97
        assert dram_energy(T, 1000) == pytest.approx(1000 * 8 * 3.97)
        assert dram_energy(T, 2) == pytest.approx(16 * 3.97)

    def test_sfu_energy_per_operation(self):
        assert GNNIE_TABLE.sfu_op_energy_pj == 2.5
        assert sfu_energy(T, 40) == pytest.approx(100.0)
        assert sfu_energy(T, 0) == 0

    @pytest.mark.parametrize(
        "buffer_name, field",
        [
            ("input", "input_buffer_pj_per_byte"),
            ("output", "output_buffer_pj_per_byte"),
            ("weight", "weight_buffer_pj_per_byte"),
        ],
    )
    def test_buffer_energy_is_linear_in_bytes(self, buffer_name, field):
        per_byte = getattr(GNNIE_TABLE, field)
        assert buffer_energy(T, buffer_name, 1) == pytest.approx(per_byte)
        assert buffer_energy(T, buffer_name, 250) == pytest.approx(250 * per_byte)

    def test_static_energy_scales_with_time(self):
        one_second_pj = static_energy(T, int(GNNIE_TABLE.frequency_hz))
        assert one_second_pj == pytest.approx(GNNIE_TABLE.static_power_watts * 1e12)
        assert static_energy(T, 2 * int(GNNIE_TABLE.frequency_hz)) == pytest.approx(
            2 * one_second_pj
        )

    def test_chip_area_is_calibrated_to_paper(self):
        """The paper reports 15.6 mm^2 at 32 nm for the GNNIE configuration."""
        area = chip_area_mm2(T, AcceleratorConfig())
        assert area == pytest.approx(15.6023, abs=1e-4)

    def test_area_counts_one_sfu_per_row_of_each_sfu_column(self):
        # 1,024 MACs either way: 16 rows of 4 MACs per CPE, or 8 rows of 8.
        sixteen_rows = AcceleratorConfig(macs_per_group=(4,), rows_per_group=(16,))
        eight_rows = AcceleratorConfig(macs_per_group=(8,), rows_per_group=(8,))
        assert sixteen_rows.total_macs == eight_rows.total_macs
        growth = chip_area_mm2(T, sixteen_rows) - chip_area_mm2(T, eight_rows)
        assert growth == pytest.approx(GNNIE_TABLE.sfu_area_mm2 * GNNIE_TABLE.sfu_columns * 8)

    def test_area_grows_with_input_buffer(self):
        small = AcceleratorConfig(input_buffer_bytes=256 * 1024)
        large = AcceleratorConfig(input_buffer_bytes=1024 * 1024)
        growth = chip_area_mm2(T, large) - chip_area_mm2(T, small)
        assert growth == pytest.approx(GNNIE_TABLE.sram_area_mm2_per_mb * 0.75)

    def test_static_energy_zero_cycles(self):
        assert static_energy(T, 0) == 0

    def test_area_grows_with_macs(self):
        from repro.hw import design_preset

        assert chip_area_mm2(T, design_preset("D")) > chip_area_mm2(T, design_preset("A"))
