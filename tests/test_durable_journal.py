"""Unit tests: journal framing, torn-write detection, crash injection.

The journal's storage discipline claims that *any* byte-level damage a
crash can inflict — truncation mid-record, a flipped byte, garbage
appended by a dying process — is detected at the offset where it
happened, and everything before that offset stays readable.  These tests
exercise the claim exhaustively: every possible truncation point of a
multi-record journal, systematic single-byte corruption, and the fault
injector the crash/resume harness is built on.
"""

from __future__ import annotations

import pytest

from repro.durable.journal import (
    SCHEMA_VERSION,
    InjectedCrash,
    JournalWriter,
    encode_record,
    read_journal,
    scan_journal,
)
from repro.errors import DurabilityError


def sample_records(count: int = 8) -> list[dict]:
    """Small kinded payloads with floats that must round-trip losslessly."""
    return [
        {"kind": "pop", "time": 1.0 / 3.0 + index * 0.1, "tag": f"e{index}",
         "payload": index}
        for index in range(count)
    ]


def write_journal(path, records) -> int:
    writer = JournalWriter(path)
    for record in records:
        writer.append(record)
    writer.close()
    return writer.bytes_written


class TestFraming:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "j"
        records = sample_records()
        size = write_journal(path, records)
        loaded, valid_bytes, tail_error = scan_journal(path)
        assert [payload for payload, _ in loaded] == records
        assert valid_bytes == size == path.stat().st_size
        assert tail_error is None

    def test_floats_round_trip_bit_equal(self, tmp_path):
        # repr-based JSON floats: the exact double comes back, not an
        # approximation — the bit-equality contract everything rides on.
        path = tmp_path / "j"
        ugly = {"kind": "x", "value": 0.1 + 0.2, "third": 1.0 / 3.0}
        write_journal(path, [ugly])
        [(payload, _)] = read_journal(path)
        assert payload["value"] == 0.1 + 0.2
        assert payload["third"] == 1.0 / 3.0

    def test_append_returns_record_offsets(self, tmp_path):
        writer = JournalWriter(tmp_path / "j")
        offsets = [writer.append(r) for r in sample_records(3)]
        writer.close()
        loaded = read_journal(tmp_path / "j")
        assert [offset for _, offset in loaded] == offsets

    def test_encode_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_record({"kind": "x", "v": float("nan")})

    def test_schema_version_is_pinned(self):
        # Bumping the schema re-captures the golden journal and keeps the
        # old one as a refused fixture — this assertion is the tripwire.
        assert SCHEMA_VERSION == 3

    def test_fsync_cadence_validation(self, tmp_path):
        with pytest.raises(DurabilityError):
            JournalWriter(tmp_path / "j", fsync_every=0)

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = JournalWriter(tmp_path / "j")
        writer.append({"kind": "x"})
        writer.close()
        assert writer.closed
        with pytest.raises(DurabilityError):
            writer.append({"kind": "y"})

    def test_empty_journal_scans_clean(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"")
        assert scan_journal(path) == ([], 0, None)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(DurabilityError):
            scan_journal(tmp_path / "nope")


class TestTornWrites:
    def test_every_truncation_point_recovers_the_full_prefix(self, tmp_path):
        """Cut the journal at *every* byte; the valid prefix always loads."""
        path = tmp_path / "j"
        records = sample_records()
        write_journal(path, records)
        data = path.read_bytes()
        clean, _, _ = scan_journal(path)
        boundaries = [offset for _, offset in clean] + [len(data)]
        torn = tmp_path / "torn"
        for cut in range(len(data)):
            torn.write_bytes(data[:cut])
            loaded, valid_bytes, tail_error = scan_journal(torn)
            expected = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(loaded) == expected, f"cut at {cut}"
            assert valid_bytes == boundaries[expected], f"cut at {cut}"
            if cut in boundaries:
                assert tail_error is None
            else:
                assert isinstance(tail_error, DurabilityError)
                assert tail_error.offset == valid_bytes

    def test_single_byte_corruption_is_caught_at_its_record(self, tmp_path):
        """Flip one byte at a spread of positions; the damaged record and
        everything after it is rejected, everything before survives."""
        path = tmp_path / "j"
        write_journal(path, sample_records())
        data = path.read_bytes()
        clean, _, _ = scan_journal(path)
        boundaries = [offset for _, offset in clean] + [len(data)]
        bad = tmp_path / "bad"
        for position in range(0, len(data), 7):
            flipped = bytearray(data)
            flipped[position] ^= 0x55
            bad.write_bytes(bytes(flipped))
            loaded, valid_bytes, tail_error = scan_journal(bad)
            # The record containing the flipped byte must not validate.
            damaged = max(b for b in boundaries[:-1] if b <= position)
            assert valid_bytes <= damaged, f"flip at {position}"
            assert isinstance(tail_error, DurabilityError)
            assert tail_error.offset == valid_bytes
            prefix = [payload for payload, _ in loaded]
            assert prefix == [payload for payload, _ in clean][:len(prefix)]

    def test_garbage_tail_names_its_offset(self, tmp_path):
        path = tmp_path / "j"
        size = write_journal(path, sample_records(2))
        with open(path, "ab") as handle:
            handle.write(b"not a journal record at all\n")
        loaded, valid_bytes, tail_error = scan_journal(path)
        assert len(loaded) == 2
        assert valid_bytes == size
        assert tail_error is not None and tail_error.offset == size
        with pytest.raises(DurabilityError) as error:
            read_journal(path)
        assert error.value.offset == size

    def test_interleaved_garbage_stops_the_scan(self, tmp_path):
        # Damage *between* records: the suffix is unreachable even though
        # it contains well-formed frames — recovery must not resurrect
        # records beyond a hole it cannot vouch for.
        path = tmp_path / "j"
        records = sample_records(4)
        write_journal(path, records)
        data = path.read_bytes()
        clean, _, _ = scan_journal(path)
        second_offset = clean[1][1]
        third_offset = clean[2][1]
        spliced = (
            data[:second_offset] + b"XXXX\n" + data[third_offset:]
        )
        path.write_bytes(spliced)
        loaded, valid_bytes, tail_error = scan_journal(path)
        assert [payload for payload, _ in loaded] == records[:1]
        assert valid_bytes == second_offset
        assert tail_error is not None

    def test_declared_length_mismatch(self, tmp_path):
        path = tmp_path / "j"
        record = encode_record({"kind": "x", "v": 1})
        marker, length, crc, body = record.split(b" ", 3)
        lying = b" ".join([marker, str(int(length) + 2).encode(), crc, body])
        path.write_bytes(lying)
        _, valid_bytes, tail_error = scan_journal(path)
        assert valid_bytes == 0
        assert "payload bytes" in str(tail_error)


class TestCrashInjection:
    def test_injected_crash_tears_the_record_at_the_exact_byte(self, tmp_path):
        path = tmp_path / "j"
        records = sample_records()
        whole = b"".join(encode_record(r) for r in records)
        crash_at = len(whole) // 2
        writer = JournalWriter(path, crash_after_bytes=crash_at)
        with pytest.raises(InjectedCrash):
            for record in records:
                writer.append(record)
        assert path.stat().st_size == crash_at
        loaded, valid_bytes, tail_error = scan_journal(path)
        assert valid_bytes <= crash_at
        assert [payload for payload, _ in loaded] == records[:len(loaded)]

    def test_crashed_writer_stays_dead(self, tmp_path):
        writer = JournalWriter(tmp_path / "j", crash_after_bytes=1)
        with pytest.raises(InjectedCrash):
            writer.append({"kind": "x"})
        assert writer.closed
        with pytest.raises(InjectedCrash):
            writer.append({"kind": "y"})

    def test_truncate_to_drops_the_torn_tail(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, sample_records(3))
        data = path.read_bytes()
        clean, _, _ = scan_journal(path)
        keep = clean[2][1]  # keep exactly two records
        path.write_bytes(data[: keep + 5])  # plus a torn stub
        writer = JournalWriter(path, truncate_to=keep)
        writer.append({"kind": "resumed"})
        writer.close()
        loaded = read_journal(path)
        assert [payload["kind"] for payload, _ in loaded] == [
            "pop", "pop", "resumed",
        ]
