"""Tests for the accelerator configuration and design presets."""

from __future__ import annotations

import pathlib
import re
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.hw import (
    DESIGN_PRESETS,
    FIT,
    GNNIE_TABLE,
    AcceleratorConfig,
    design_preset,
)

#: Names that are not AcceleratorConfig fields: the fixed design's numbers
#: are GNNIE_TABLE entries, ``num_rows`` is the sum of ``rows_per_group``,
#: zero skipping is always on, and the miss-path hierarchy is an ablation
#: sized by :func:`repro.cache.miss_path_ablation_rows`'s arguments.
REMOVED_CONFIG_FIELDS = (
    "num_rows",
    "num_cols",
    "frequency_hz",
    "weight_buffer_bytes",
    "bytes_per_value",
    "dram_bandwidth_bytes_per_s",
    "link_bandwidth_bytes_per_s",
    "link_latency_cycles",
    "enable_zero_skipping",
    "miss_path_mechanisms",
    "victim_cache_entries",
    "miss_cache_entries",
    "stream_buffer_count",
    "stream_buffer_depth",
)


class TestGNNIETable:
    def test_every_entry_cites_a_section_or_is_fit(self):
        entries = fields(GNNIE_TABLE)
        assert {"num_cols", "frequency_hz", "dram_pj_per_bit"} <= {e.name for e in entries}
        for entry in entries:
            source = entry.metadata["source"]
            # "GNNIE Section <section>: <the parameter as the paper states it>"
            assert source == FIT or re.fullmatch(
                r"GNNIE Section [IVX]+(-[A-Z])?: .+", source
            ), f"{entry.name}: {source!r}"

    def test_table_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            GNNIE_TABLE.num_cols = 8

    def test_only_these_modules_name_the_table(self):
        """Pricing reads the table it is given.  ``GNNIE_TABLE`` is named by
        its definition, its re-export, the executor's default and the code
        that describes the default chip; no pricing module binds it."""
        source = pathlib.Path(__file__).resolve().parents[1] / "src"
        naming = {
            path.relative_to(source).as_posix()
            for path in source.rglob("*.py")
            if "GNNIE_TABLE" in path.read_text()
        }
        assert naming == {
            "repro/hw/config.py",
            "repro/hw/__init__.py",
            "repro/sim/gnnie_executor.py",
            "repro/sim/design_space.py",
            "repro/analysis/roofline.py",
            "repro/analysis/workload.py",
            "repro/sweep/worker.py",
        }

    @pytest.mark.parametrize("name", REMOVED_CONFIG_FIELDS)
    def test_config_rejects_a_removed_field(self, name):
        assert name not in {field.name for field in fields(AcceleratorConfig)}
        with pytest.raises(TypeError):
            AcceleratorConfig(**{name: 1})


class TestAcceleratorConfig:
    def test_paper_flexible_mac_allocation(self):
        config = AcceleratorConfig()
        assert config.macs_per_row == (4,) * 8 + (5,) * 4 + (6,) * 4
        # 16 columns x (8*4 + 4*5 + 4*6) = 1216 MACs (Section VIII-A).
        assert config.total_macs == 1216

    def test_peak_throughput_matches_table4(self):
        config = AcceleratorConfig()
        peak_tops = config.peak_ops_per_second / 1e12
        assert peak_tops == pytest.approx(3.16, abs=0.05)

    def test_num_cpes(self):
        assert AcceleratorConfig().num_cpes == 256

    def test_num_rows_adds_up_the_row_groups(self):
        assert AcceleratorConfig().num_rows == 16
        assert AcceleratorConfig(macs_per_group=(4, 5), rows_per_group=(8, 4)).num_rows == 12

    def test_input_buffer_sizing_per_dataset(self):
        config = AcceleratorConfig()
        assert config.resolve_input_buffer("CR").input_buffer_bytes == 256 * 1024
        assert config.resolve_input_buffer("cora").input_buffer_bytes == 256 * 1024
        assert config.resolve_input_buffer("PB").input_buffer_bytes == 512 * 1024
        assert config.resolve_input_buffer("RD").input_buffer_bytes == 512 * 1024

    def test_input_buffer_auto_sentinel_default(self):
        config = AcceleratorConfig()
        assert config.input_buffer_bytes is None
        # Dataset-independent consumers (the area model) fall back to the
        # paper's large-dataset sizing — the field's former default.
        assert config.input_buffer_bytes_or_default == 512 * 1024

    def test_resolve_input_buffer_applies_paper_sizing_only_when_auto(self):
        auto = AcceleratorConfig()
        assert auto.resolve_input_buffer("CR").input_buffer_bytes == 256 * 1024
        assert auto.resolve_input_buffer("RD").input_buffer_bytes == 512 * 1024
        explicit = replace(auto, input_buffer_bytes=128 * 1024)
        # An explicit override is never clobbered by the per-dataset sizing.
        assert explicit.resolve_input_buffer("CR") is explicit
        assert explicit.resolve_input_buffer("RD").input_buffer_bytes == 128 * 1024
        assert explicit.input_buffer_bytes_or_default == 128 * 1024

    def test_validation_input_buffer_bytes(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(input_buffer_bytes=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(input_buffer_bytes=-1)

    def test_without_optimizations(self):
        baseline = AcceleratorConfig().without_optimizations()
        assert baseline.total_macs == 1024
        assert not baseline.enable_flexible_mac
        assert not baseline.enable_degree_aware_caching

    def test_validation_rows_per_group(self):
        with pytest.raises(ValueError, match="equal length"):
            AcceleratorConfig(macs_per_group=(4, 5), rows_per_group=(8, 4, 4))
        with pytest.raises(ValueError, match="at least one row"):
            AcceleratorConfig(rows_per_group=(8, 0, 4))

    def test_validation_monotonic_macs(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(macs_per_group=(6, 5, 4), rows_per_group=(8, 4, 4))

    def test_validation_positive_dimensions(self):
        with pytest.raises(ValueError, match="at least one row"):
            AcceleratorConfig(macs_per_group=(), rows_per_group=())
        with pytest.raises(ValueError):
            AcceleratorConfig(gamma=-1)

    def test_replace_keeps_validation(self):
        config = AcceleratorConfig()
        smaller = replace(config, input_buffer_bytes=128 * 1024)
        assert smaller.input_buffer_bytes == 128 * 1024
        assert smaller.total_macs == config.total_macs


class TestDesignPresets:
    def test_all_five_designs(self):
        assert set(DESIGN_PRESETS) == {"A", "B", "C", "D", "E"}

    def test_mac_totals_match_section8e(self):
        assert design_preset("A").total_macs == 1024
        assert design_preset("B").total_macs == 1280
        assert design_preset("C").total_macs == 1536
        assert design_preset("D").total_macs == 1792
        assert design_preset("E").total_macs == 1216

    def test_uniform_designs_have_no_fm(self):
        for name in "ABCD":
            assert not design_preset(name).enable_flexible_mac
        assert design_preset("E").enable_flexible_mac

    def test_lookup_case_insensitive(self):
        assert design_preset("e").name.startswith("Design E")

    def test_unknown_design(self):
        with pytest.raises(KeyError):
            design_preset("Z")
