"""Fig. 10 — histogram of the unprocessed-edge counter α across cache Rounds.

On Pubmed the initial α distribution is the power-law degree distribution;
after each Round of the degree-aware caching policy both the peak frequency
and the maximum α shrink, showing that the policy works off the power-law
tail round by round.
"""

from __future__ import annotations

from repro.analysis import alpha_round_histograms, format_table
from repro.hw import GNNIE_TABLE, AcceleratorConfig
from repro.hw.config import CacheKnobs, pricing_view
from repro.sim import run_cache_simulation


def test_fig10_alpha_distribution_across_rounds(benchmark, record, datasets):
    pubmed = datasets["pubmed"]
    config = AcceleratorConfig().resolve_input_buffer(pubmed.name)
    knobs = pricing_view(CacheKnobs, config, GNNIE_TABLE)

    def compute():
        result = run_cache_simulation(pubmed.adjacency, knobs, feature_length=128)
        return result, alpha_round_histograms(result)

    cache_result, histograms = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = [
        {
            "round": hist.round_index,
            "unfinished_vertices": hist.unfinished_vertices,
            "max_alpha": hist.max_alpha,
            "peak_frequency": hist.peak_frequency,
        }
        for hist in histograms
    ]
    summary = (
        f"rounds={cache_result.num_rounds} iterations={cache_result.num_iterations} "
        f"vertex_fetches={cache_result.vertex_fetches} "
        f"edges_processed={cache_result.total_edges_processed}"
    )
    record(
        "fig10_alpha_rounds",
        format_table(rows, title="Fig. 10 — α distribution across Rounds (Pubmed)") + "\n" + summary,
    )

    # Every edge is aggregated; the policy never issues random DRAM accesses.
    assert cache_result.total_edges_processed == pubmed.adjacency.num_edges // 2
    assert cache_result.random_accesses == 0
    # Multiple rounds are needed (the buffer holds ~15% of Pubmed).
    assert cache_result.num_rounds >= 2
    # The histogram flattens: the maximum α never increases, and from the
    # first Round onward the peak frequency shrinks as vertices finish.
    maxima = [hist.max_alpha for hist in histograms]
    peaks = [hist.peak_frequency for hist in histograms]
    assert all(b <= a for a, b in zip(maxima, maxima[1:]))
    assert all(b <= a for a, b in zip(peaks[1:], peaks[2:]))
    # The initial distribution reflects the power-law tail (large max α).
    assert maxima[0] > 20 * AcceleratorConfig().gamma
