"""Chrome trace-event schema validation (used by the tests).

The trace-event format is loosely specified (Google's "Trace Event Format"
document); this module checks the invariants our exporter guarantees and
that ``chrome://tracing`` / Perfetto rely on to render a timeline at all:

* the document is a JSON object with a ``traceEvents`` list;
* every event is an object with a ``ph`` phase string;
* duration events (``B``/``E``/``X``) carry numeric ``ts`` and integer
  ``pid``/``tid``; ``B``/``X`` are named; ``X`` has a non-negative ``dur``;
* per ``(pid, tid)`` track, timestamps are monotonically non-decreasing and
  every ``B`` has a matching later ``E`` (properly nested, none left open).
"""

from __future__ import annotations

from typing import Any

__all__ = ["validate_chrome_trace", "assert_valid_chrome_trace"]

#: Phases that must carry ts/pid/tid.
_TIMED_PHASES = {"B", "E", "X", "C", "i", "I"}


def validate_chrome_trace(document: Any) -> list[str]:
    """Return a list of problems (empty means the trace is valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"document must be a JSON object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document must hold a 'traceEvents' list"]

    tracks: dict[tuple, dict] = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where}: missing 'ph' phase")
            continue
        if phase not in _TIMED_PHASES:
            continue  # metadata and async/flow events are out of scope
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ph={phase} needs a non-negative numeric 'ts'")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            problems.append(f"{where}: ph={phase} needs integer 'pid' and 'tid'")
            continue
        if phase in ("B", "X") and not isinstance(event.get("name"), str):
            problems.append(f"{where}: ph={phase} needs a 'name'")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: ph=X needs a non-negative 'dur'")

        track = tracks.setdefault(
            (event["pid"], event["tid"]), {"last_ts": None, "stack": []}
        )
        if track["last_ts"] is not None and ts < track["last_ts"]:
            problems.append(
                f"{where}: ts {ts} goes backwards on track "
                f"(pid={event['pid']}, tid={event['tid']}, last {track['last_ts']})"
            )
        track["last_ts"] = ts
        if phase == "B":
            track["stack"].append((event.get("name"), ts, index))
        elif phase == "E":
            if not track["stack"]:
                problems.append(
                    f"{where}: E without a matching B on track "
                    f"(pid={event['pid']}, tid={event['tid']})"
                )
            else:
                name, begin_ts, _ = track["stack"].pop()
                if ts < begin_ts:
                    problems.append(f"{where}: E at {ts} before its B at {begin_ts}")
                ename = event.get("name")
                if isinstance(ename, str) and isinstance(name, str) and ename != name:
                    problems.append(
                        f"{where}: E named {ename!r} closes B named {name!r}"
                    )

    for (pid, tid), track in sorted(tracks.items()):
        for name, _, index in track["stack"]:
            problems.append(
                f"event {index}: B {name!r} never closed on track (pid={pid}, tid={tid})"
            )
    return problems


def assert_valid_chrome_trace(document: Any) -> None:
    """Raise ``AssertionError`` listing every schema violation found."""
    problems = validate_chrome_trace(document)
    if problems:
        raise AssertionError(
            "invalid Chrome trace:\n" + "\n".join(f"  - {p}" for p in problems)
        )
