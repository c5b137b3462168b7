"""Durable scheduler state: journaled checkpoint/resume, proven by replay.

The paper's premise is *continuous* near-real-time decision support; this
package makes the PR 6 serving runtime survive process death without
perturbing a single scheduling decision.  Three layers:

* :mod:`repro.durable.journal` — the storage discipline: an append-only
  file of length-prefixed, CRC-checked JSON records, fsync'd on a
  cadence, with byte-exact torn-write detection and a crash injector.
* :mod:`repro.durable.recovery` — the schema (arrivals, pops, decisions,
  windows, ledgers, snapshots) and the recovery algorithm: restore the
  last valid snapshot, replay the journal tail literally, and verify
  every journaled decision against the replayed one.
* :mod:`repro.durable.harness` — the proof: kill a journaled run at any
  byte offset, resume it, and compare decision log + IV ledger bit-equal
  against an uninterrupted run.

``repro.serve`` wires the same records under its wall-clock loop, so a
live service resumes exactly where it crashed (``serve --journal DIR
--resume``).
"""

from repro.durable.harness import (
    JournaledRun,
    crash_and_resume,
    journaled_run,
    resume_run,
    runs_equivalent,
)
from repro.durable.journal import (
    SCHEMA_VERSION,
    InjectedCrash,
    JournalWriter,
    encode_record,
    read_journal,
    scan_journal,
)
from repro.durable.recovery import (
    JournalObserver,
    RecoveredRun,
    recover,
    reconcile,
    verify_journal,
)

__all__ = [
    "SCHEMA_VERSION",
    "InjectedCrash",
    "JournalWriter",
    "encode_record",
    "scan_journal",
    "read_journal",
    "JournalObserver",
    "RecoveredRun",
    "recover",
    "reconcile",
    "verify_journal",
    "JournaledRun",
    "journaled_run",
    "resume_run",
    "crash_and_resume",
    "runs_equivalent",
]
