"""Result export: structured reports from simulated inferences.

Turns :class:`~repro.sim.results.InferenceResult` objects into plain
dictionaries, JSON documents and flat per-phase rows.  Used by the CLI
(`python -m repro`).
"""

from __future__ import annotations

import json

from repro.sim.results import InferenceResult

__all__ = [
    "result_to_dict",
    "result_to_json",
    "phase_table",
]


def result_to_dict(result: InferenceResult) -> dict:
    """Full nested report of one inference (layers, phases, energy)."""
    return {
        "dataset": result.dataset,
        "model": result.model,
        "config": result.config_name,
        "frequency_hz": result.frequency_hz,
        "total_cycles": result.total_cycles,
        "latency_seconds": result.latency_seconds,
        "effective_tops": result.effective_tops,
        "total_mac_operations": result.total_mac_operations,
        "total_dram_bytes": result.total_dram_bytes,
        "energy_joules": result.energy_joules,
        "inferences_per_kilojoule": result.inferences_per_kilojoule,
        "global_preprocessing_cycles": result.global_preprocessing_cycles,
        "energy_breakdown_pj": result.energy.as_dict(),
        "layers": [
            {
                "layer_index": layer.layer_index,
                "in_features": layer.in_features,
                "out_features": layer.out_features,
                "total_cycles": layer.total_cycles,
                "phases": [
                    {
                        "name": phase.name,
                        "compute_cycles": phase.compute_cycles,
                        "sfu_cycles": phase.sfu_cycles,
                        "memory_stall_cycles": phase.memory_stall_cycles,
                        "preprocessing_cycles": phase.preprocessing_cycles,
                        "mac_operations": phase.mac_operations,
                        "dram_read_bytes": phase.dram_read_bytes,
                        "dram_write_bytes": phase.dram_write_bytes,
                        "dram_random_accesses": phase.dram_random_accesses,
                    }
                    for phase in layer.phases()
                ],
            }
            for layer in result.layers
        ],
    }


def result_to_json(result: InferenceResult, *, indent: int = 2) -> str:
    """JSON document of the full report."""
    return json.dumps(result_to_dict(result), indent=indent)


def phase_table(result: InferenceResult) -> list[dict[str, object]]:
    """Flat per-phase rows (for `analysis.format_table`)."""
    rows: list[dict[str, object]] = []
    for layer in result.layers:
        for phase in layer.phases():
            rows.append(
                {
                    "layer": layer.layer_index,
                    "phase": phase.name,
                    "compute_cycles": phase.compute_cycles,
                    "sfu_cycles": phase.sfu_cycles,
                    "stall_cycles": phase.memory_stall_cycles,
                    "preprocessing_cycles": phase.preprocessing_cycles,
                    "total_cycles": phase.total_cycles,
                    "macs": phase.mac_operations,
                    "dram_bytes": phase.dram_bytes,
                }
            )
    return rows
