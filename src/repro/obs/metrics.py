"""Counter/gauge metrics registry for the executor, cache and fleet layers.

A :class:`MetricsRegistry` hands out get-or-create :class:`Counter` and
:class:`Gauge` instruments keyed by ``(name, labels)`` — e.g. the GNNIE
executor registers ``executor.cache_sim.runs`` and
``executor.cache_sim.memo_hits``, the sweep runner ``sweep.cells.executed``
and the tune loop ``tune.proposals``.  Instruments are plain attribute-increment objects (no
locks — the repo's fleet parallelism is process-based, each process holds
its own registry and ships aggregates, not instruments).

The disabled default is :data:`NULL_METRICS`, whose instruments are one
shared no-op object, so instrumented code needs no ``if`` guards and costs
one method call per event when observability is off.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count (int or float amounts)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (worker counts, Pareto-front sizes, ...)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, sorted labels)``."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple, Counter | Gauge] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r}{labels or ''} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def instruments(self) -> Iterable[Counter | Gauge]:
        """All instruments, sorted by (name, labels) for stable output."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def snapshot(self) -> list[dict]:
        """Flat, JSON-ready rows — one per instrument."""
        return [
            {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": dict(instrument.labels),
                "value": instrument.value,
            }
            for instrument in self.instruments()
        ]

    def merge(self, snapshot: Iterable[dict]) -> None:
        """Fold a foreign snapshot in (counters add, gauges overwrite)."""
        for row in snapshot:
            cls = Counter if row.get("kind", "counter") == "counter" else Gauge
            instrument = self._get(cls, row["name"], dict(row.get("labels", {})))
            if cls is Counter:
                instrument.inc(row["value"])
            else:
                instrument.set(row["value"])


class NullMetricsRegistry(MetricsRegistry):
    """Disabled registry: every instrument is one shared no-op."""

    enabled = False

    class _NullInstrument:
        __slots__ = ()
        name = "null"
        kind = "null"
        labels: dict = {}
        value = 0

        def inc(self, amount: float = 1) -> None:
            pass

        def set(self, value: float) -> None:
            pass

    _INSTRUMENT = _NullInstrument()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels):
        return self._INSTRUMENT

    def gauge(self, name: str, **labels):
        return self._INSTRUMENT

    def instruments(self):
        return []

    def snapshot(self) -> list[dict]:
        return []

    def merge(self, snapshot) -> None:
        pass


#: Shared disabled registry — the default for every instrumented component.
NULL_METRICS = NullMetricsRegistry()
