#!/usr/bin/env python3
"""Miss-path hierarchy study: victim cache, miss cache and stream buffers.

GNNIE's degree-aware policy eliminates random DRAM traffic entirely; the
classic policies (and the vertex-id-order ablation baseline) do not.  This
example quantifies how much of that *remaining* random traffic three cheap
miss-path structures recover when placed behind the input buffer:

* a fully associative victim cache holding recently evicted vertex records,
* a tag-only miss cache catching short-term miss reuse,
* stream buffers prefetching the sequential DRAM vertex stream.

The hierarchy is an ablation over the id-order policies' misses, sized by
the arguments of ``miss_path_ablation_rows`` (or the ``repro cache``
flags).  The example ends with the degree-aware walk, which pays no random
access at all: prevention beats recovery.

Run with:  python examples/miss_path_hierarchy.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.cache import miss_path_ablation_rows, simulate_policy
from repro.datasets import build_dataset
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import CacheKnobs, pricing_view
from repro.sim import input_buffer_capacity


def main() -> None:
    graph = build_dataset("cora", seed=0)
    config = AcceleratorConfig().resolve_input_buffer(graph.name)
    knobs = pricing_view(CacheKnobs, config, GNNIE_TABLE)
    feature_length = 128
    capacity, record_bytes = input_buffer_capacity(graph.adjacency, knobs, feature_length)
    print(
        f"Cora stand-in: {graph.num_vertices} vertices, "
        f"{graph.num_edges // 2} undirected edges; "
        f"input buffer holds {capacity} vertex records\n"
    )

    # ------------------------------------------------------------------ #
    # 1. Mechanism ablation on the id-order policies' miss traces.
    # ------------------------------------------------------------------ #
    rows = miss_path_ablation_rows(
        graph.adjacency,
        capacity,
        policies=("vertex_order", "lru"),
        dataset=graph.name,
    )
    print(format_table(rows, title="Miss-path mechanisms per id-order policy"))

    # ------------------------------------------------------------------ #
    # 2. Stream-buffer sizing sweep (count x depth).
    # ------------------------------------------------------------------ #
    sweep_rows = []
    for count in (1, 2, 4, 8):
        for depth in (4, 16, 64):
            [row] = miss_path_ablation_rows(
                graph.adjacency,
                capacity,
                mechanisms=("stream",),
                stream_buffers=count,
                stream_depth=depth,
            )
            sweep_rows.append(
                {
                    "buffers": count,
                    "depth": depth,
                    "hit_rate_pct": row["hit_rate_pct"],
                    "dram_random_avoided": row["dram_random_avoided"],
                }
            )
    print()
    print(format_table(sweep_rows, title="Stream-buffer sizing sweep (vertex-order baseline)"))

    # ------------------------------------------------------------------ #
    # 3. The degree-aware walk has no miss to recover.
    # ------------------------------------------------------------------ #
    walk = simulate_policy(
        "degree_aware",
        graph.adjacency,
        capacity,
        bytes_per_vertex=record_bytes,
        gamma=knobs.gamma,
        index_bytes=knobs.index_bytes,
    )
    best = min(int(row["dram_random_remaining"]) for row in rows)
    print(
        f"\nThe best hierarchy above still leaves {best} random DRAM accesses; "
        f"the degree-aware walk pays {walk.random_accesses} "
        f"({walk.vertex_fetches} sequential fetches), so it has nothing for "
        "the hierarchy to recover."
    )


if __name__ == "__main__":
    main()
