"""Append-only journal: length-prefixed, checksummed JSONL records.

The durable layer's storage discipline follows duro's event-sourced
ledger: every input the scheduler acts on — arrivals and popped events —
plus session snapshots and a finish mark is appended to one file and
**never rewritten**.  Each record is framed as::

    D1 <length> <crc32-hex> <payload-json>\\n

where ``length`` is the byte length of the UTF-8 payload and the CRC32
covers exactly those bytes.  The frame makes torn writes *detectable at
the byte where they happened*: a crash mid-record leaves a tail whose
length or checksum cannot validate, and :func:`scan_journal` reports the
offset of the first bad byte so recovery can truncate to the last valid
record instead of silently loading half a decision.

Floats round-trip losslessly (``json`` encodes them via ``repr``), so a
replayed journal reproduces the exact IVs the live run reported —
bit-equal, the same contract the ledger and trace layers already hold.

``fsync_every`` bounds the window of records a power loss can take (1 =
every record reaches the platter before the write returns).
``crash_after_bytes`` is the fault injector behind the crash/resume
equivalence harness: the writer stops mid-record at an arbitrary byte
offset, exactly like a torn write, and raises :class:`InjectedCrash`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.errors import DurabilityError, ReproError

__all__ = [
    "SCHEMA_VERSION",
    "InjectedCrash",
    "JournalWriter",
    "encode_record",
    "scan_journal",
    "read_journal",
]

#: Journal schema version, written into the mandatory header record.
#: A reader accepts exactly this version and refuses any other at the
#: header (offset 0) — no migration path; a bump re-captures the golden
#: journal and keeps the old one as a refused fixture.
#: Version 2: idle windows are not pushed, so v1's idle pops never replay.
#: Version 3: only inputs are recorded; decisions, windows and ledgers
#: are replaced by a chained output digest on pops, snapshots and finish.
SCHEMA_VERSION = 3

_MARKER = b"D1"


class InjectedCrash(ReproError):
    """The writer hit its configured crash point (fault injection)."""


def encode_record(payload: dict) -> bytes:
    """Frame one JSON-safe payload as a journal record."""
    body = json.dumps(
        payload, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%s %d %08x %s\n" % (_MARKER, len(body), crc, body)


class JournalWriter:
    """Appends framed records to a journal file, fsync'd on a cadence.

    Parameters
    ----------
    path:
        Journal file (created if missing).
    fsync_every:
        Force records to stable storage every N appends (1 = each one).
        Data is always flushed to the OS per append, so a *process* crash
        loses nothing; the cadence only bounds power-loss exposure.
    crash_after_bytes:
        Fault injection: once the file would exceed this many bytes, the
        writer emits only the bytes up to the limit — a torn write — and
        raises :class:`InjectedCrash`.  ``None`` disables injection.
    truncate_to:
        Drop an invalid tail before appending (recovery passes the valid
        byte count from :func:`scan_journal`).
    """

    def __init__(
        self,
        path: str | Path,
        fsync_every: int = 1,
        crash_after_bytes: int | None = None,
        truncate_to: int | None = None,
    ) -> None:
        if fsync_every < 1:
            raise DurabilityError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.crash_after_bytes = crash_after_bytes
        self._crashed = False
        self._closed = False
        self._appends = 0
        if truncate_to is not None and self.path.exists():
            with open(self.path, "rb+") as handle:
                handle.truncate(truncate_to)
        self._file = open(self.path, "ab")
        self.bytes_written = self._file.tell()

    def append(self, payload: dict) -> int:
        """Append one record; returns its byte offset in the file."""
        if self._crashed:
            raise InjectedCrash(
                f"journal writer already crashed at byte "
                f"{self.crash_after_bytes}"
            )
        if self._closed:
            raise DurabilityError("journal writer is closed")
        record = encode_record(payload)
        offset = self.bytes_written
        if (
            self.crash_after_bytes is not None
            and offset + len(record) > self.crash_after_bytes
        ):
            torn = record[: max(0, self.crash_after_bytes - offset)]
            self._file.write(torn)
            self._file.flush()
            self.bytes_written += len(torn)
            self._crashed = True
            self._file.close()
            raise InjectedCrash(
                f"injected crash at byte {self.crash_after_bytes} "
                f"(mid-record at offset {offset})"
            )
        self._file.write(record)
        self._file.flush()
        self.bytes_written += len(record)
        self._appends += 1
        if self._appends % self.fsync_every == 0:
            os.fsync(self._file.fileno())
        return offset

    @property
    def closed(self) -> bool:
        """Whether this writer can no longer accept appends."""
        return self._closed or self._crashed

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        if not self._crashed and not self._closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush, fsync and close the journal."""
        if self._crashed or self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True


def scan_journal(
    path: str | Path,
) -> tuple[list[tuple[dict, int]], int, DurabilityError | None]:
    """Tolerantly scan a journal; stop at the first invalid byte.

    Returns ``(records, valid_bytes, tail_error)`` where ``records`` is a
    list of ``(payload, offset)`` pairs for every record that validates,
    ``valid_bytes`` is the offset of the first byte that does not (== the
    file size for a clean journal), and ``tail_error`` is the
    :class:`~repro.errors.DurabilityError` describing the bad tail
    (``None`` when the whole file validates).  Recovery truncates to
    ``valid_bytes`` and resumes from the last valid record — a torn or
    corrupted tail is *expected* after a crash, never an exception here.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DurabilityError(f"cannot read journal {path}: {exc}")
    records: list[tuple[dict, int]] = []
    offset = 0
    size = len(data)
    while offset < size:
        error = _parse_at(data, offset)
        if isinstance(error, DurabilityError):
            return records, offset, error
        payload, next_offset = error
        records.append((payload, offset))
        offset = next_offset
    return records, offset, None


def _parse_at(
    data: bytes, offset: int
) -> tuple[dict, int] | DurabilityError:
    """Parse one record at ``offset``; a frame violation returns the error."""
    end = data.find(b"\n", offset)
    if end == -1:
        return DurabilityError(
            f"truncated record at offset {offset} "
            f"({len(data) - offset} trailing bytes, no terminator)",
            offset=offset,
        )
    line = data[offset:end]
    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != _MARKER:
        return DurabilityError(
            f"bad record marker at offset {offset}", offset=offset
        )
    try:
        length = int(parts[1])
    except ValueError:
        return DurabilityError(
            f"bad length field at offset {offset}", offset=offset
        )
    body = parts[3]
    if len(body) != length:
        return DurabilityError(
            f"record at offset {offset} declares {length} payload bytes "
            f"but carries {len(body)}",
            offset=offset,
        )
    try:
        declared_crc = int(parts[2], 16)
    except ValueError:
        return DurabilityError(
            f"bad checksum field at offset {offset}", offset=offset
        )
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if actual_crc != declared_crc:
        return DurabilityError(
            f"checksum mismatch at offset {offset} "
            f"(declared {declared_crc:08x}, computed {actual_crc:08x})",
            offset=offset,
        )
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        return DurabilityError(
            f"unparseable payload at offset {offset}: {exc}", offset=offset
        )
    if not isinstance(payload, dict) or "kind" not in payload:
        return DurabilityError(
            f"record at offset {offset} is not a kinded object",
            offset=offset,
        )
    return payload, end + 1


def read_journal(path: str | Path) -> list[tuple[dict, int]]:
    """Strictly read a journal: any invalid byte raises.

    The strict counterpart of :func:`scan_journal`, for callers that
    expect a *clean* journal (the golden-fixture regression, audits) —
    the raised :class:`~repro.errors.DurabilityError` names the offset of
    the first bad record.
    """
    records, _valid_bytes, tail_error = scan_journal(path)
    if tail_error is not None:
        raise tail_error
    return records
