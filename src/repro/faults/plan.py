"""Declarative fault plans: what breaks, where, and for how many attempts.

A :class:`FaultSpec` is one armed fault; a :class:`FaultPlan` is the set of
them plus the seed their probabilistic decisions derive from.  Plans are
plain data — JSON round-trippable, hashable by content — because they must
survive an environment-variable hop into pool worker processes and must
mean exactly the same thing there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["FAULT_KINDS", "FAULT_SITES", "FaultPlan", "FaultSpec", "InjectedFault"]

#: What an armed fault does when it fires.
FAULT_KINDS = ("raise", "hang", "crash", "torn_write")

#: Instrumented sites.  ``cell`` fires inside worker cell execution, once
#: per cell of a group; ``store.append`` fires inside
#: :meth:`repro.sweep.store.ResultStore.append` and is the only site where
#: ``torn_write`` is meaningful.
FAULT_SITES = ("cell", "store.append")

#: Attributes a ``match`` mapping may constrain, per site.
_MATCH_KEYS = {
    "cell": frozenset({"key", "dataset", "family", "backend", "config_name"}),
    "store.append": frozenset({"key"}),
}


class InjectedFault(RuntimeError):
    """Raised at a fault site armed by the active :class:`FaultPlan`.

    Deliberately a distinct type so chaos tests (and the supervisor's
    failure rows) can tell injected failures from genuine bugs.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault.

    Args:
        site: Where the fault lives (see :data:`FAULT_SITES`).
        kind: What happens when it fires (see :data:`FAULT_KINDS`).
        match: Subset match over the site's attributes — every listed
            attribute must equal the site's value for the spec to apply.
            An empty match applies to every visit of the site.
        times: Fire on attempts ``1..times`` of a matching visit, then go
            quiet (the retry that follows succeeds).  ``-1`` fires forever —
            a permanently poisoned target.
        probability: Chance of firing on an otherwise-firing attempt,
            decided by a seeded hash of (plan seed, spec index, key,
            attempt) — deterministic across runs, never a live RNG.
        hang_seconds: Sleep duration for ``kind="hang"``.  Keep it finite:
            a supervised sweep times the worker out and terminates it, but
            an unsupervised caller would wait this long.
        exit_code: Worker process exit status for ``kind="crash"``.
    """

    site: str = "cell"
    kind: str = "raise"
    match: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    times: int = 1
    probability: float = 1.0
    hang_seconds: float = 60.0
    exit_code: int = 73

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.kind == "torn_write" and self.site != "store.append":
            raise ValueError("torn_write faults only apply to the store.append site")
        if isinstance(self.match, Mapping):
            object.__setattr__(self, "match", tuple(sorted(self.match.items())))
        else:
            object.__setattr__(self, "match", tuple(sorted(self.match)))
        unknown = {name for name, _ in self.match} - _MATCH_KEYS[self.site]
        if unknown:
            raise ValueError(
                f"fault match keys {sorted(unknown)} unknown for site "
                f"{self.site!r}; known: {sorted(_MATCH_KEYS[self.site])}"
            )
        if self.times < -1 or self.times == 0:
            raise ValueError("times must be a positive attempt count or -1 (forever)")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    def applies(self, attrs: Mapping[str, object]) -> bool:
        """Whether this spec's match constrains to the given site attributes."""
        return all(attrs.get(name) == value for name, value in self.match)

    def fires(self, *, attempt: int, seed: int, index: int, key: str) -> bool:
        """Deterministic firing decision for one matching visit."""
        if self.times != -1 and attempt > self.times:
            return False
        if self.probability >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{seed}:{index}:{key}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.probability

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "match": dict(self.match),
            "times": self.times,
            "probability": self.probability,
            "hang_seconds": self.hang_seconds,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of armed faults.

    The seed feeds every spec's probabilistic firing decision; two runs of
    the same plan against the same cells replay the same faults.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def find(self, site: str, *, attempt: int, **attrs) -> FaultSpec | None:
        """First spec that applies to this site visit and fires this attempt."""
        key = str(attrs.get("key", ""))
        for index, spec in enumerate(self.specs):
            if spec.site != site or not spec.applies(attrs):
                continue
            if spec.fires(attempt=attempt, seed=self.seed, index=index, key=key):
                return spec
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [spec.as_dict() for spec in self.specs]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan JSON must be an object")
        unknown = set(data) - {"seed", "specs"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields {sorted(unknown)}")
        return cls(
            specs=tuple(FaultSpec.from_dict(entry) for entry in data.get("specs", ())),
            seed=int(data.get("seed", 0)),
        )
