"""Resumable, self-healing on-disk result store for scenario sweeps.

One sweep cell → one JSONL row, keyed by the cell's content hash
(:meth:`~repro.sweep.matrix.SweepCell.key`).  Rows are serialized
canonically — sorted keys, compact separators — so identical cells produce
byte-identical lines, armored with a per-row CRC32 checksum field on the
way to disk, and appended with an immediate flush so a killed sweep loses
at most the row being written.

Reopening the store streams the file line by line (a million-row store is
never held in memory twice), indexes completed keys, and degrades instead
of dying on damage:

* a truncated trailing line (the partial write of an interrupted run) is
  silently dropped and truncated away, exactly as before;
* a corrupt *interior* line — unparseable bytes, a missing checksum or
  a mismatched one, a row without a key — is **quarantined**: recorded on
  :attr:`ResultStore.quarantined`, surfaced through one loud
  :class:`StoreCorruptionWarning`, and left in place as evidence.  The
  damaged cells simply re-execute on resume; ``repro store repair``
  (:mod:`repro.sweep.repair`) physically excises the bad lines.

Rows whose ``status`` is ``"failed"`` (permanently-failed cells recorded by
the supervised runner) are resumable-over: appending a healthy row for the
same key is allowed and later loads index the healthy row (last write
wins), which is how a fault-free re-run heals a chaos-damaged sweep.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "CHECKSUM_FIELD",
    "ResultStore",
    "ScannedLine",
    "StoreCorruptionWarning",
    "armored_line",
    "canonical_row",
    "is_failed_row",
    "row_checksum",
    "scan_store_lines",
]

#: Name of the per-row checksum field injected at write time and stripped
#: at load time — logical rows never carry it.  A stored line without it
#: is corrupt.
CHECKSUM_FIELD = "crc"


class StoreCorruptionWarning(UserWarning):
    """Loud summary emitted when loading a store quarantined corrupt rows."""


def canonical_row(row: dict) -> str:
    """Canonical single-line JSON serialization of one result row."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def row_checksum(row: dict) -> str:
    """CRC32 of the canonical serialization, as 8 lowercase hex digits."""
    return format(zlib.crc32(canonical_row(row).encode()), "08x")


def armored_line(row: dict) -> str:
    """The on-disk form of a row: canonical JSON plus its checksum field."""
    return canonical_row({**row, CHECKSUM_FIELD: row_checksum(row)})


def is_failed_row(row: dict) -> bool:
    """Whether a row records a permanently-failed cell (see the runner)."""
    return row.get("status") == "failed"


@dataclass
class ScannedLine:
    """One physical store line, validated: the unit both load and repair read."""

    #: 1-based line number.
    number: int
    #: Byte offset of the line start in the file.
    start: int
    #: Raw line bytes, without the trailing newline.
    raw: bytes
    #: Whether the line ended with a newline (only the file tail may not).
    terminated: bool
    #: The validated logical row (checksum stripped), or ``None`` on damage.
    row: dict | None
    #: Human-readable damage description when ``row`` is ``None``.
    error: str | None = None


def _validate_line(raw: bytes) -> tuple[dict | None, str | None]:
    """Parse and checksum-verify one line → (row, error)."""
    try:
        row = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, "unparseable JSON"
    if not isinstance(row, dict):
        return None, "row is not a JSON object"
    if CHECKSUM_FIELD not in row:
        return None, f"row has no {CHECKSUM_FIELD!r} checksum field"
    recorded = row.pop(CHECKSUM_FIELD)
    actual = row_checksum(row)
    if recorded != actual:
        return None, f"checksum mismatch (recorded {recorded!r}, computed {actual!r})"
    if "key" not in row:
        return None, "row has no 'key' field"
    return row, None


def scan_store_lines(path: str | os.PathLike) -> Iterator[ScannedLine]:
    """Stream every physical line of a store file, validated.

    The shared scanner under :meth:`ResultStore._load` and the
    :mod:`repro.sweep.repair` tools: reads line by line (never the whole
    file), flags the unterminated tail, strips and verifies checksums.
    """
    offset = 0
    number = 0
    with Path(path).open("rb") as handle:
        for raw in handle:
            number += 1
            start = offset
            offset += len(raw)
            terminated = raw.endswith(b"\n")
            body = raw[:-1] if terminated else raw
            row, error = _validate_line(body)
            yield ScannedLine(
                number=number,
                start=start,
                raw=body,
                terminated=terminated,
                row=row,
                error=error,
            )


class ResultStore:
    """Append-only JSONL store indexed by cell key.

    Args:
        path: Store file location; parent directories are created lazily on
            the first append.  ``None`` keeps the store purely in memory
            (used by the in-process design-space wrappers).
        resume: When ``False``, an existing file is truncated instead of
            indexed, so every cell re-executes.
    """

    def __init__(
        self, path: str | os.PathLike | None = None, *, resume: bool = True
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._rows: dict[str, dict] = {}
        self._dropped_partial = False
        self._quarantined: list[ScannedLine] = []
        self._append_counts: dict[str, int] = {}
        if self.path is not None and self.path.exists():
            if resume:
                self._load()
            else:
                self.path.unlink()

    # ------------------------------------------------------------------ #
    # Loading / indexing
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        tail: ScannedLine | None = None
        for line in scan_store_lines(self.path):
            tail = line
            if line.row is not None:
                # Later rows win: a healthy re-execution of a failed cell
                # appends after the failed row and overrides it here.
                self._rows[line.row["key"]] = line.row
            elif line.terminated:
                # A newline-terminated damaged line is genuine interior
                # corruption wherever it sits (every append writes "row\n",
                # so any newline-terminated prefix is complete rows) —
                # quarantine it, keep the evidence in place, carry on.
                self._quarantined.append(line)
            # An unterminated damaged tail is handled after the scan: it is
            # the partial write of a killed sweep, not corruption.
        if tail is not None and not tail.terminated:
            if tail.row is None:
                self._dropped_partial = True
                # Truncate the partial write away so the next append starts
                # on a fresh line instead of gluing onto it (which would
                # corrupt the store for every later load).
                os.truncate(self.path, tail.start)
            else:
                # The tail row parsed but lost only its newline in a
                # partial write; restore it so the next append starts on a
                # fresh line.
                with self.path.open("a") as handle:
                    handle.write("\n")
        if self._quarantined:
            lines = ", ".join(str(line.number) for line in self._quarantined[:8])
            more = len(self._quarantined) - 8
            warnings.warn(
                f"result store {self.path}: quarantined {len(self._quarantined)} "
                f"corrupt row(s) at line(s) {lines}"
                + (f" (+{more} more)" if more > 0 else "")
                + "; the damaged cells will re-execute on resume. Run "
                f"`repro store repair --store {self.path}` to excise them.",
                StoreCorruptionWarning,
                stacklevel=3,
            )

    @property
    def dropped_partial_row(self) -> bool:
        """Whether loading discarded a truncated trailing row."""
        return self._dropped_partial

    @property
    def quarantined(self) -> list[ScannedLine]:
        """Corrupt interior lines found at load time (kept in the file)."""
        return list(self._quarantined)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def get(self, key: str) -> dict | None:
        return self._rows.get(key)

    def keys(self) -> set[str]:
        return set(self._rows)

    def rows(self) -> Iterator[dict]:
        """All indexed rows, in insertion (file) order."""
        return iter(self._rows.values())

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(self, row: dict) -> None:
        """Index ``row`` and durably append it to the file (if any).

        A key already present is not rewritten — except when the stored row
        is a ``failed`` row and the new one is healthy: the healed row is
        appended after it and wins on every later load (exactly-once resume
        re-executes failed cells, nothing else).
        """
        key = row["key"]
        existing = self._rows.get(key)
        if existing is not None:
            if not (is_failed_row(existing) and not is_failed_row(row)):
                return
        self._rows[key] = row
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = (armored_line(row) + "\n").encode()
        # Deterministic chaos hook: an armed torn_write fault makes this
        # append die mid-row, leaving the torn prefix on disk un-indexed —
        # the adversity the self-healing load and repair tools exist for.
        from repro.faults import torn_write_bytes

        attempt = self._append_counts[key] = self._append_counts.get(key, 0) + 1
        torn = torn_write_bytes(key, data, attempt=attempt)
        if torn is not None:
            del self._rows[key]
            if existing is not None:
                self._rows[key] = existing
        with self.path.open("ab") as handle:
            handle.write(torn if torn is not None else data)
            handle.flush()
            os.fsync(handle.fileno())
