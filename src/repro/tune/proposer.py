"""Candidate proposer: mutate Pareto survivors into the next generation.

The proposer is the search half of the :mod:`repro.tune` closed loop.
Given the current survivors (the latency/area Pareto front plus the
best-β elite, as :class:`~repro.sim.design_space.DesignPoint`\\ s), it emits
the next generation of :class:`~repro.hw.config.AcceleratorConfig`
candidates.  :class:`ParetoMutationProposer` applies one local mutation per
child across the axes the paper's design-space exploration sweeps
(Section VIII-A):

* MAC-per-row-group allocation, under exactly the grid's admissibility
  rules (:func:`~repro.sim.design_space.admissible_mac_allocation`:
  monotonic non-decreasing groups, total within the MAC budget),
* input/output buffer capacities (halve/double within bounds — explicit
  ``input_buffer_bytes`` overrides are what the sweep executor now
  respects, which is what makes this axis searchable at all),
* the cache eviction threshold γ.

The proposer is deterministic given its ``rng``: the tune loop seeds one
:class:`random.Random` per generation from the spec seed, so a killed and
resumed tuning run re-proposes byte-identical candidates and the result
store serves every one of them without re-simulating.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from repro.hw.config import AcceleratorConfig
from repro.sim.design_space import DesignPoint, admissible_mac_allocation

__all__ = ["ParetoMutationProposer", "candidate_name"]

#: Per-group MAC count bounds of a proposed allocation.
MAC_BOUNDS = (2, 8)
#: Input- and output-buffer capacity bounds (bytes) of a proposed config.
INPUT_BUFFER_BOUNDS = (64 * 1024, 1024 * 1024)
OUTPUT_BUFFER_BOUNDS = (256 * 1024, 4 * 1024 * 1024)
#: Bounds of the cache eviction threshold γ.
GAMMA_BOUNDS = (1, 12)
#: Mutation retries per child before giving up on it (a saturated knob,
#: e.g. doubling a buffer already at its bound, wastes one attempt).
MAX_ATTEMPTS_PER_CHILD = 8


def candidate_name(config: AcceleratorConfig) -> str:
    """Deterministic, content-derived display name for a tuned candidate.

    The name is a pure function of the tunable fields, so one configuration
    reached along two different mutation paths carries one name (and, since
    the name is part of the serialized config, one cell key) — the
    deduplication the tune loop relies on.
    """
    macs = "/".join(str(m) for m in config.macs_per_group)
    input_kib = (
        "auto"
        if config.input_buffer_bytes is None
        else f"{config.input_buffer_bytes // 1024}K"
    )
    parts = [
        f"FM{macs}",
        f"IB{input_kib}",
        f"OB{config.output_buffer_bytes // 1024}K",
        f"g{config.gamma}",
    ]
    return "tune:" + "-".join(parts)


@dataclass(frozen=True)
class ParetoMutationProposer:
    """One bounded local mutation per child.

    Children are bred round-robin over the survivors so every Pareto point
    seeds roughly equally many candidates; each child is one mutation away
    from its parent, keeping the search local to the front.  The MAC axes
    are weighted double — they are the paper's headline knob.
    """

    mac_budget: int = 1280

    #: Mutation kinds, MAC allocation and input buffer weighted double.
    _KINDS = (
        "mac", "mac",
        "input_buffer", "input_buffer",
        "output_buffer",
        "gamma",
    )

    def propose(
        self,
        survivors: Sequence[DesignPoint],
        *,
        rng: random.Random,
        count: int,
    ) -> list[AcceleratorConfig]:
        """Emit up to ``count`` candidate configurations from the survivors."""
        candidates: list[AcceleratorConfig] = []
        if not survivors:
            return candidates
        for child_index in range(count):
            parent = survivors[child_index % len(survivors)].config
            child = self._mutate(parent, rng)
            if child is not None:
                candidates.append(child)
        return candidates

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def _mutate(
        self, parent: AcceleratorConfig, rng: random.Random
    ) -> AcceleratorConfig | None:
        for _ in range(MAX_ATTEMPTS_PER_CHILD):
            kind = rng.choice(self._KINDS)
            child = getattr(self, f"_mutate_{kind}")(parent, rng)
            if child is not None and child != parent:
                return replace(child, name=candidate_name(child))
        return None

    def _mutate_mac(
        self, parent: AcceleratorConfig, rng: random.Random
    ) -> AcceleratorConfig | None:
        allocation = list(parent.macs_per_group)
        group = rng.randrange(len(allocation))
        allocation[group] += rng.choice((-1, 1))
        low, high = MAC_BOUNDS
        if not low <= allocation[group] <= high:
            return None
        if not admissible_mac_allocation(
            allocation, group_sizes=parent.rows_per_group, mac_budget=self.mac_budget
        ):
            return None
        return replace(parent, macs_per_group=tuple(allocation))

    def _mutate_input_buffer(
        self, parent: AcceleratorConfig, rng: random.Random
    ) -> AcceleratorConfig | None:
        current = parent.input_buffer_bytes
        if current is None:
            # Pin the auto sentinel to one of the paper's two sizings first;
            # later mutations then walk the explicit axis.
            size = rng.choice((256 * 1024, 512 * 1024))
        else:
            size = current * 2 if rng.random() < 0.5 else current // 2
        low, high = INPUT_BUFFER_BOUNDS
        size = min(max(size, low), high)
        if size == current:
            return None
        return replace(parent, input_buffer_bytes=size)

    def _mutate_output_buffer(
        self, parent: AcceleratorConfig, rng: random.Random
    ) -> AcceleratorConfig | None:
        current = parent.output_buffer_bytes
        size = current * 2 if rng.random() < 0.5 else current // 2
        low, high = OUTPUT_BUFFER_BOUNDS
        size = min(max(size, low), high)
        if size == current:
            return None
        return replace(parent, output_buffer_bytes=size)

    def _mutate_gamma(
        self, parent: AcceleratorConfig, rng: random.Random
    ) -> AcceleratorConfig | None:
        gamma = parent.gamma + rng.choice((-1, 1))
        low, high = GAMMA_BOUNDS
        if not low <= gamma <= high:
            return None
        return replace(parent, gamma=gamma)
