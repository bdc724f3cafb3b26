"""Hierarchical span tracer: who spent the time, host-side and modeled.

A :class:`Tracer` records a tree of :class:`SpanRecord`\\ s — ``inference →
layer → phase-op`` for a single simulation, ``sweep → cell → inference`` for
a fleet run.  Every span carries two kinds of attribution:

* **host** — wall-clock start/end captured with ``time.perf_counter`` (the
  simulator's own Python cost, what a profiler of the *reproduction* sees);
* **modeled** — attributes the instrumented code attaches (``cycles``,
  ``mac_operations``, ``dram_bytes``, ``energy_pj`` from the phase records,
  what the *modeled accelerator* spends).

The default everywhere is :data:`NULL_TRACER`, whose ``span()`` returns one
shared no-op context manager: no allocation per span beyond the call's
argument tuple, no recording, no timing — the instrumented code paths are
byte-identical to their un-instrumented behavior (pinned by the golden and
sweep byte-identity tests).

Spans are plain picklable dataclasses so worker processes can ship their
segments back to the parent (:meth:`Tracer.absorb`); start/end times are
anchored to the Unix epoch (``time.time`` at tracer creation plus
``perf_counter`` offsets), so segments recorded in different processes merge
onto one timeline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["SpanRecord", "Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    #: Unix-epoch-anchored start/end, seconds (monotonic within a process).
    start_s: float
    end_s: float
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            category=data["category"],
            start_s=data["start_s"],
            end_s=data["end_s"],
            pid=data["pid"],
            attrs=dict(data.get("attrs", {})),
        )


class Span:
    """Context manager for one live span; ``set()`` attaches attribution.

    The record stays referenced after ``__exit__``, so instrumented code can
    attach *final* modeled attribution once it is known (the GNNIE executor
    sets each op span's cycles once the overlap rule has priced its layer).
    """

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attribution attributes."""
        self.record.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._enter(self.record)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._exit(self.record)
        return False


class Tracer:
    """Collects a span tree for one process (single-threaded use)."""

    enabled = True

    def __init__(self) -> None:
        self._records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._pid = os.getpid()
        #: Offset converting ``perf_counter`` readings to Unix-epoch seconds.
        self._epoch_offset = time.time() - time.perf_counter()  # repro-check: disable=D102 (display-only epoch anchor)

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def span(self, name: str, category: str = "span", **attrs) -> Span:
        """Open a span; use as ``with tracer.span("layer0") as s:``."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            category=category,
            start_s=0.0,
            end_s=0.0,
            pid=self._pid,
            attrs=dict(attrs),
        )
        self._next_id += 1
        return Span(self, record)

    def _enter(self, record: SpanRecord) -> None:
        self._stack.append(record.span_id)
        record.start_s = self._now()

    def _exit(self, record: SpanRecord) -> None:
        record.end_s = self._now()
        if self._stack and self._stack[-1] == record.span_id:
            self._stack.pop()
        self._records.append(record)

    def _now(self) -> float:
        return self._epoch_offset + time.perf_counter()

    # ------------------------------------------------------------------ #
    # Access / merging
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> list[SpanRecord]:
        """Finished spans, in completion order."""
        return self._records

    def absorb(self, records: Iterable[SpanRecord | dict]) -> None:
        """Merge foreign span records (e.g. a worker process's segment).

        Absorbed spans keep their own ids/parents and pid — they form their
        own subtree on their own timeline track; only local span-id
        collisions are avoided by namespacing nothing (consumers group by
        ``(pid, span_id)``).
        """
        for record in records:
            if isinstance(record, dict):
                record = SpanRecord.from_dict(record)
            self._records.append(record)


class NullTracer:
    """The zero-cost disabled tracer: one shared no-op span for every call."""

    enabled = False
    records: tuple = ()

    class _NullSpan:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            return False

        def set(self, **attrs) -> None:
            pass

    _SPAN = _NullSpan()

    def span(self, name: str, category: str = "span", **attrs):
        return self._SPAN

    def absorb(self, records) -> None:
        pass


#: Shared disabled tracer — the default for every instrumented component.
NULL_TRACER = NullTracer()
