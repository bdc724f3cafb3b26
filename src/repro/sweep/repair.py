"""Store surgery: verify, repair and compact JSONL result stores.

The :class:`~repro.sweep.store.ResultStore` loader degrades gracefully —
corrupt interior rows are quarantined in memory and the damaged cells
re-execute on resume — but the bad bytes stay in the file as evidence.
This module is the offline half of the self-healing story, surfaced as the
``repro store`` CLI:

* :func:`verify_store` — read-only health report: row counts, failed rows,
  corrupt lines (with reasons), duplicate keys, a dangling partial tail.
* :func:`repair_store` — excise corrupt lines into a ``.quarantine``
  sidecar (evidence preserved) and truncate a partial tail, keeping every
  healthy line byte-identical.  Atomic: the store is rewritten to a
  temporary file and swapped in with ``os.replace``.
* :func:`compact_store` — rewrite the store as one canonical checksummed
  line per key (last write wins, matching load semantics): overridden
  ``failed`` rows disappear and duplicate keys collapse.  Corrupt lines are
  quarantined as in repair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.sweep.store import ScannedLine, armored_line, is_failed_row, scan_store_lines

__all__ = ["StoreReport", "compact_store", "repair_store", "verify_store"]


@dataclass
class StoreReport:
    """Outcome of one verify / repair / compact pass."""

    path: str
    action: str
    #: Physical lines scanned (including damaged ones).
    lines: int = 0
    #: Healthy logical rows the loader would index (after last-wins dedupe).
    rows: int = 0
    #: Healthy rows recording permanently-failed cells.
    failed_rows: int = 0
    #: Keys that appear on more than one healthy line (failed→healed pairs).
    duplicate_keys: int = 0
    #: Corrupt lines: (line number, reason).
    corrupt: list[tuple[int, str]] = field(default_factory=list)
    #: Whether the file ends in a dangling partial line.
    partial_tail: bool = False
    #: Lines physically removed by repair/compact (0 for verify).
    removed_lines: int = 0
    #: Sidecar the removed corrupt lines were appended to, if any.
    quarantine_path: str | None = None

    @property
    def clean(self) -> bool:
        """No corruption and no partial tail (duplicates are not damage)."""
        return not self.corrupt and not self.partial_tail

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "action": self.action,
            "lines": self.lines,
            "rows": self.rows,
            "failed_rows": self.failed_rows,
            "duplicate_keys": self.duplicate_keys,
            "corrupt": [
                {"line": number, "reason": reason} for number, reason in self.corrupt
            ],
            "partial_tail": self.partial_tail,
            "removed_lines": self.removed_lines,
            "quarantine": self.quarantine_path,
            "clean": self.clean,
        }


def _scan(path: str | os.PathLike, action: str) -> tuple[StoreReport, list[ScannedLine]]:
    """Shared verify pass: the report plus every scanned line."""
    report = StoreReport(path=str(path), action=action)
    lines: list[ScannedLine] = []
    seen: dict[str, int] = {}
    for line in scan_store_lines(path):
        lines.append(line)
        report.lines += 1
        if line.row is None:
            if line.terminated:
                report.corrupt.append((line.number, line.error or "corrupt"))
            else:
                report.partial_tail = True
            continue
        key = line.row["key"]
        seen[key] = seen.get(key, 0) + 1
    # Index like the loader: last healthy line per key wins.
    indexed: dict[str, dict] = {}
    for line in lines:
        if line.row is not None and line.terminated:
            indexed[line.row["key"]] = line.row
    # A healthy unterminated tail is still a row the loader indexes (it
    # repairs the newline); count it too.
    if lines and not lines[-1].terminated and lines[-1].row is not None:
        indexed[lines[-1].row["key"]] = lines[-1].row
    report.rows = len(indexed)
    report.failed_rows = sum(1 for row in indexed.values() if is_failed_row(row))
    report.duplicate_keys = sum(1 for count in seen.values() if count > 1)
    return report, lines


def verify_store(path: str | os.PathLike) -> StoreReport:
    """Read-only health report of a store file."""
    report, _ = _scan(path, "verify")
    return report


def _quarantine(
    path: Path, lines: list[ScannedLine], report: StoreReport
) -> None:
    """Append removed corrupt lines to the ``.quarantine`` sidecar."""
    if not lines:
        return
    sidecar = path.with_name(path.name + ".quarantine")
    with sidecar.open("ab") as handle:
        for line in lines:
            handle.write(line.raw + b"\n")
    report.quarantine_path = str(sidecar)


def _rewrite(path: Path, payload: bytes) -> None:
    """Atomically replace the store file (tmp write + ``os.replace``)."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def repair_store(path: str | os.PathLike) -> StoreReport:
    """Excise corrupt lines (and a partial tail), keeping healthy lines as-is.

    Healthy lines are preserved byte-identically, and duplicate keys keep
    both lines (use :func:`compact_store` to collapse them).  Removed
    corrupt lines are appended to ``<store>.quarantine`` so no evidence is
    destroyed.
    """
    path = Path(path)
    report, lines = _scan(path, "repair")
    if report.clean:
        return report
    kept: list[bytes] = []
    removed: list[ScannedLine] = []
    for line in lines:
        if line.row is None and line.terminated:
            removed.append(line)
        elif line.row is None:
            report.removed_lines += 1  # partial tail: dropped, not evidence
        else:
            kept.append(line.raw + b"\n")
    _quarantine(path, removed, report)
    report.removed_lines += len(removed)
    _rewrite(path, b"".join(kept))
    return report


def compact_store(path: str | os.PathLike) -> StoreReport:
    """Rewrite the store as one canonical checksummed line per key.

    Applies the loader's last-write-wins semantics physically: a failed row
    overridden by its healed re-execution disappears, and duplicate keys
    collapse to the surviving row.  Corrupt lines are quarantined exactly
    like :func:`repair_store`.
    """
    path = Path(path)
    report, lines = _scan(path, "compact")
    indexed: dict[str, dict] = {}
    removed: list[ScannedLine] = []
    for line in lines:
        if line.row is not None:
            indexed[line.row["key"]] = line.row
        elif line.terminated:
            removed.append(line)
    _quarantine(path, removed, report)
    payload = "".join(armored_line(row) + "\n" for row in indexed.values()).encode()
    report.removed_lines = report.lines - len(indexed)
    _rewrite(path, payload)
    return report
