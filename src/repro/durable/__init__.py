"""Durable scheduler state: journaled checkpoint/resume, proven by replay.

The paper's premise is *continuous* near-real-time decision support; this
package makes the serving runtime survive process death without
perturbing a single scheduling decision.  Three layers:

* :mod:`repro.durable.journal` — the storage discipline: an append-only
  file of length-prefixed, CRC-checked JSON records, fsync'd on a
  cadence, with byte-exact torn-write detection and a crash injector.
* :mod:`repro.durable.recovery` — the schema (arrivals, digest-stamped
  pops, snapshots, finish) and the recovery algorithm: restore the last
  valid snapshot, replay the journal tail literally, and check the
  replay's output digest against every pop, snapshot and finish record.
* :mod:`repro.durable.harness` — the proof: kill a journaled run at any
  byte offset, resume it, and compare decision log + IV ledger bit-equal
  against an uninterrupted run.

``repro.serve`` wires the same records under its wall-clock loop, so a
live service resumes exactly where it crashed (``serve --journal DIR
--resume``).
"""

from repro import _lazy_exports

_EXPORTS = {
    "SCHEMA_VERSION": "journal",
    "InjectedCrash": "journal",
    "JournalWriter": "journal",
    "encode_record": "journal",
    "scan_journal": "journal",
    "read_journal": "journal",
    "JournalObserver": "recovery",
    "RecoveredRun": "recovery",
    "recover": "recovery",
    "verify_journal": "recovery",
    "JournaledRun": "harness",
    "journaled_run": "harness",
    "resume_run": "harness",
    "crash_and_resume": "harness",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
