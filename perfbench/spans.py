"""In-memory span recording around the public entry points of each layer.

A :class:`SpanRecorder` wraps functions and methods of the ``repro``
package so that every call becomes one span ``(name, start, end, parent)``.
Nothing under ``src/`` is modified: :func:`instrument` rebinds each target
in every already-imported ``repro`` module that holds a reference to it
(``from x import f`` copies the function into the importing module) and
puts the originals back when the context exits.

Layer names carry a dot (``cache.sim``); names without one (``setup``,
``request_loop``, ``request``, ``resume``) are structural spans the
workloads open themselves.  Per layer the recorder reports inclusive time (outermost
occurrences only), self time (duration minus direct children) and calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from dataclasses import dataclass, field
from time import process_time as clock
from typing import Callable, Iterator

#: Structural span enclosing the measured requests of one pass.
LOOP = "request_loop"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def is_layer(name: str) -> bool:
    return "." in name


@dataclass
class SpanRecorder:
    """Spans of one traced run, kept in memory until the run ends."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, 0.0, parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = clock()
        try:
            yield record
        finally:
            record.end = clock()
            self._stack.pop()

    def wrap(self, name: str, function: Callable, observe: Callable | None = None) -> Callable:
        """``function`` timed as a ``name`` span; ``observe(args, kwargs,
        result)`` runs after the span closes (outside its duration)."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _has_ancestor(self, span: Span, predicate: Callable[[Span], bool]) -> bool:
        parent = span.parent
        while parent >= 0:
            ancestor = self.spans[parent]
            if predicate(ancestor):
                return True
            parent = ancestor.parent
        return False

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.duration
        table: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.name, {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0})
            row["calls"] += 1
            row["self_s"] += span.duration - children[index]
            if not self._has_ancestor(span, lambda other: other.name == span.name):
                row["inclusive_s"] += span.duration
        return table

    def coverage(self) -> tuple[float, float]:
        """(seconds of outermost layer spans inside request loops, loop seconds)."""
        loop = sum(span.duration for span in self.spans if span.name == LOOP)
        covered = sum(
            span.duration
            for span in self.spans
            if is_layer(span.name)
            and self._has_ancestor(span, lambda other: other.name == LOOP)
            and not self._has_ancestor(span, lambda other: is_layer(other.name))
        )
        return covered, loop

    def as_records(self) -> list[dict]:
        """Spans as JSON-ready dicts; times are process CPU seconds."""
        return [
            {"name": span.name, "start_s": span.start, "end_s": span.end, "parent": span.parent}
            for span in self.spans
        ]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attribute`` recorded as ``layer``.

    ``owner`` is a class (the method is replaced on it) or a module (the
    function is replaced in every ``repro`` module that imported it).
    """

    layer: str
    owner: object
    attribute: str
    observe: Callable | None = None


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, targets: list[Target]) -> Iterator[None]:
    """Install span wrappers for ``targets``; restore the originals on exit."""
    restore: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            if isinstance(target.owner, type):
                original = target.owner.__dict__[target.attribute]
                holders = [(target.owner, target.attribute)]
            else:
                original = getattr(target.owner, target.attribute)
                holders = [
                    (module, name)
                    for module_name, module in list(sys.modules.items())
                    if module_name == "repro" or module_name.startswith("repro.")
                    for name, value in list(vars(module).items())
                    if value is original
                ]
            wrapper = recorder.wrap(target.layer, original, target.observe)
            for holder, name in holders:
                restore.append((holder, name, original))
                setattr(holder, name, wrapper)
        yield
    finally:
        for holder, name, original in reversed(restore):
            setattr(holder, name, original)
