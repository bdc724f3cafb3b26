"""Tests for the DRAM timing and energy/area models."""

from __future__ import annotations

import pytest

from repro.hw import (
    GNNIE_TABLE,
    AcceleratorConfig,
    AreaModel,
    EnergyBreakdown,
    EnergyModel,
    HBMModel,
)


class TestHBMModel:
    def test_sequential_transfer_cycles(self):
        dram = HBMModel()
        bytes_per_cycle = 256e9 / 1.3e9
        assert dram.sequential_transfer_cycles(int(bytes_per_cycle * 10)) == 10
        assert dram.sequential_transfer_cycles(0) == 0

    def test_random_slower_than_sequential_per_byte(self):
        dram = HBMModel()
        sequential = dram.sequential_transfer_cycles(64 * 1000)
        random = dram.random_transfer_cycles(1000, bytes_per_access=64)
        assert random > sequential

    def test_random_parallelism_amortizes_penalty(self):
        dram = HBMModel()
        granule = GNNIE_TABLE.random_access_granularity_bytes
        for accesses in (1, 7, 1000):
            penalty = dram.random_transfer_cycles(accesses) - dram.sequential_transfer_cycles(
                accesses * granule
            )
            assert penalty == -(
                -accesses
                * GNNIE_TABLE.random_access_penalty_cycles
                // GNNIE_TABLE.random_access_parallelism
            )

    def test_bytes_per_cycle(self):
        assert HBMModel().bytes_per_cycle == pytest.approx(256e9 / 1.3e9)

    def test_sequential_rounds_partial_cycles_up(self):
        dram = HBMModel()
        assert dram.sequential_transfer_cycles(1) == 1
        whole = int(dram.bytes_per_cycle)
        assert dram.sequential_transfer_cycles(whole) == 1
        assert dram.sequential_transfer_cycles(whole + 1) == 2

    def test_random_transfer_cycles_exact(self):
        dram = HBMModel()
        # 10 accesses x 40 cycles of activation over 8 in flight, plus
        # 10 x 32-byte granules streamed at ~197 bytes per cycle.
        assert dram.random_transfer_cycles(10) == 50 + 2

    def test_random_access_moves_at_least_one_granule(self):
        dram = HBMModel()
        assert dram.random_transfer_cycles(100, bytes_per_access=8) == (
            dram.random_transfer_cycles(100, bytes_per_access=32)
        )
        assert dram.random_transfer_cycles(100, bytes_per_access=256) > (
            dram.random_transfer_cycles(100, bytes_per_access=32)
        )

    def test_no_random_accesses_cost_nothing(self):
        assert HBMModel().random_transfer_cycles(0) == 0

    def test_invalid(self):
        dram = HBMModel()
        with pytest.raises(ValueError):
            dram.sequential_transfer_cycles(-1)
        with pytest.raises(ValueError):
            dram.random_transfer_cycles(-1)


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
        model = EnergyModel()
        assert model.mac_energy(100) == pytest.approx(100 * GNNIE_TABLE.mac_energy_pj)
        assert model.dram_energy(1) == pytest.approx(8 * GNNIE_TABLE.dram_pj_per_bit)
        assert model.buffer_energy("output", 10) > model.buffer_energy("weight", 10)
        with pytest.raises(ValueError):
            model.buffer_energy("cache", 10)

    def test_dram_energy_is_hbm2_per_bit(self):
        model = EnergyModel()
        assert GNNIE_TABLE.dram_pj_per_bit == 3.97
        assert model.dram_energy(1000) == pytest.approx(1000 * 8 * 3.97)
        assert model.dram_energy(2) == pytest.approx(16 * 3.97)

    def test_sfu_energy_per_operation(self):
        model = EnergyModel()
        assert GNNIE_TABLE.sfu_op_energy_pj == 2.5
        assert model.sfu_energy(40) == pytest.approx(100.0)
        assert model.sfu_energy(0) == 0

    @pytest.mark.parametrize(
        "buffer_name, field",
        [
            ("input", "input_buffer_pj_per_byte"),
            ("output", "output_buffer_pj_per_byte"),
            ("weight", "weight_buffer_pj_per_byte"),
        ],
    )
    def test_buffer_energy_is_linear_in_bytes(self, buffer_name, field):
        model = EnergyModel()
        per_byte = getattr(GNNIE_TABLE, field)
        assert model.buffer_energy(buffer_name, 1) == pytest.approx(per_byte)
        assert model.buffer_energy(buffer_name, 250) == pytest.approx(250 * per_byte)

    def test_static_energy_scales_with_time(self):
        model = EnergyModel()
        one_second_pj = model.static_energy(int(GNNIE_TABLE.frequency_hz))
        assert one_second_pj == pytest.approx(GNNIE_TABLE.static_power_watts * 1e12)
        assert model.static_energy(2 * int(GNNIE_TABLE.frequency_hz)) == pytest.approx(
            2 * one_second_pj
        )

    def test_chip_area_is_calibrated_to_paper(self):
        """The paper reports 15.6 mm^2 at 32 nm for the GNNIE configuration."""
        area = AreaModel().chip_area_mm2(AcceleratorConfig())
        assert area == pytest.approx(15.6023, abs=1e-4)

    def test_area_counts_one_sfu_per_row_of_each_sfu_column(self):
        # 1,024 MACs either way: 16 rows of 4 MACs per CPE, or 8 rows of 8.
        sixteen_rows = AcceleratorConfig(macs_per_group=(4,), rows_per_group=(16,))
        eight_rows = AcceleratorConfig(macs_per_group=(8,), rows_per_group=(8,))
        assert sixteen_rows.total_macs == eight_rows.total_macs
        growth = AreaModel().chip_area_mm2(sixteen_rows) - AreaModel().chip_area_mm2(eight_rows)
        assert growth == pytest.approx(GNNIE_TABLE.sfu_area_mm2 * GNNIE_TABLE.sfu_columns * 8)

    def test_area_grows_with_input_buffer(self):
        small = AcceleratorConfig(input_buffer_bytes=256 * 1024)
        large = AcceleratorConfig(input_buffer_bytes=1024 * 1024)
        growth = AreaModel().chip_area_mm2(large) - AreaModel().chip_area_mm2(small)
        assert growth == pytest.approx(GNNIE_TABLE.sram_area_mm2_per_mb * 0.75)

    def test_static_energy_zero_cycles(self):
        assert EnergyModel().static_energy(0) == 0

    def test_area_grows_with_macs(self):
        from repro.hw import design_preset

        assert AreaModel().chip_area_mm2(design_preset("D")) > AreaModel().chip_area_mm2(
            design_preset("A")
        )
