"""Crash recovery: rebuild an exact :class:`OnlineSession` from a journal.

Recovery is a *literal replay*.  The journal records, in true order, every
input the crashed run acted on: each arrival push (with its heap position)
and each popped event.  Because the online scheduler is a deterministic
function of that event sequence (the Clock-seam contract proven by
``tests/test_clock_equivalence.py``), feeding the recorded sequence back
through a fresh session reconstructs the pending queue, the committed
server state, the decision log and the IV ledger **bit-for-bit** — there
is no "approximately recovered" state.

Snapshots short-circuit the replay: the last valid ``snapshot`` record
restores the session (:meth:`OnlineSession.restore_state`) and the event
heap (:meth:`Timeline.restore`, sequence numbers preserved so same-time
ties keep their order), and only the journal *tail* replays.  A journal
with no snapshot recovers from the beginning; the result is identical
either way, which :func:`verify_journal` checks directly.

The outputs are derived, not recorded.  :class:`JournalObserver` chains
every pop's new decision-log entries, window records and ledger entries
into one digest; each ``pop`` record carries the digest of everything
produced before it, and each ``snapshot`` and ``finish`` record the
digest and pop count at that point.  Replay recomputes the chain and
compares it at every such record, so a journal whose history the
scheduler would not reproduce — a forged record, a scheduler configured
differently — is a :class:`~repro.errors.DurabilityError` naming the
byte offset of the first record that disagrees, at most one pop after
the divergence.

Writing the journal is one :class:`~repro.mqo.online.SessionObserver`,
:class:`JournalObserver`, shared by every journaled driver: the harness's
sim runs, their resumed tails and the live service.  Recovery replays each
popped event through the same :func:`~repro.mqo.online.step`, so a
caller's observers (the service's trace and results) see the replayed
tail exactly as they saw the live one.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass

from repro.durable.journal import (
    SCHEMA_VERSION,
    JournalWriter,
    scan_journal,
)
from repro.errors import DurabilityError
from repro.mqo.online import (
    ArrivalRecord,
    OnlineSession,
    SessionObserver,
    step,
)
from repro.obs.ledger import IVLedgerEntry
from repro.sim.clocks import SimClock
from repro.sim.rng import _sha256
from repro.sim.timeline import Timeline
from repro.workload.query import DSSQuery, Workload
from repro.workload.serialize import query_from_dict, query_to_dict

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Sequence

    from repro.mqo.online import OnlineMQOScheduler

__all__ = [
    "header_record",
    "arrival_record",
    "pop_record",
    "snapshot_record",
    "finish_record",
    "JournalObserver",
    "RecoveredRun",
    "recover",
    "run_differences",
    "verify_journal",
]

#: The output digest of a run that has produced nothing yet.
_GENESIS = "0" * 16


# -- record constructors (the journal's schema, version 3) ------------------

def header_record(meta: dict | None = None) -> dict:
    """The mandatory first record: schema version + driver metadata."""
    return {"kind": "header", "schema": SCHEMA_VERSION, "meta": meta or {}}


def arrival_record(query: DSSQuery, time: float, pops_before: int) -> dict:
    """One arrival push: who, when, and at which heap position."""
    return {
        "kind": "arrival",
        "qid": query.query_id,
        "time": time,
        "pops_before": pops_before,
        "query": query_to_dict(query),
    }


def pop_record(time: float, tag: str, payload: object, digest: str) -> dict:
    """One popped clock event — journal order *is* the event order — and
    the digest of every output produced before it."""
    return {
        "kind": "pop", "time": time, "tag": tag, "payload": payload,
        "digest": digest,
    }


def snapshot_record(
    session: OnlineSession,
    timeline: Timeline,
    pops: int,
    digest: str,
    ledgers: list[IVLedgerEntry],
    extra: dict | None = None,
) -> dict:
    """A full checkpoint: session + event heap + ledger so far.

    ``extra`` carries driver-private state (the serving layer stores its
    logical clock and trace there) — recovery hands it back verbatim.
    """
    return {
        "kind": "snapshot",
        "pops": pops,
        "digest": digest,
        "session": session.capture_state(),
        "timeline": timeline.capture(),
        "ledgers": [entry.to_dict() for entry in ledgers],
        "extra": extra or {},
    }


def finish_record(pops: int, digest: str) -> dict:
    """The clock ran dry: how many pops, and the digest of all outputs."""
    return {"kind": "finish", "pops": pops, "digest": digest}


def _fold(digest: str, outputs: list) -> str:
    """Chain one pop's outputs into ``digest``: ``sha256(digest ‖ JSON)``."""
    body = json.dumps(
        outputs, separators=(",", ":"), sort_keys=True, allow_nan=False
    )
    return _sha256((digest + body).encode("utf-8")).hexdigest()[:16]


# -- journaling a driven session --------------------------------------------

class JournalObserver(SessionObserver):
    """Journals a driven session, keeps its IV ledger and output digest.

    Per pop it appends the ``pop`` record (stamped with the digest so far)
    before the session handles the event, then folds the decision-log
    entries, window records (minus wall-clock ``reopt_seconds``) and ledger
    entry the handling produced into :attr:`digest`, and, every
    ``snapshot_every`` pops, appends a snapshot (or calls ``checkpoint``,
    which a driver with private state to persist supplies instead).
    :meth:`finish` appends the ``finish`` record.  With ``writer=None`` it
    only keeps the ledger and the digest — how :func:`recover` replays.

    ``pops`` and ``digest`` count every pop the journaled run made,
    including any before a resume.
    """

    def __init__(
        self,
        writer: JournalWriter | None,
        ledgers: list[IVLedgerEntry] | None = None,
        pops: int = 0,
        digest: str = _GENESIS,
        snapshot_every: int = 0,
        checkpoint: "Callable[[], object] | None" = None,
    ) -> None:
        self.writer = writer
        self.ledgers = [] if ledgers is None else ledgers
        self.pops = pops
        self.digest = digest
        self.snapshot_every = snapshot_every
        self.checkpoint = checkpoint
        self._marks = (0, 0)

    def before_pop(self, session, now, tag, payload) -> None:
        if self.writer is not None:
            self.writer.append(pop_record(now, tag, payload, self.digest))
        self.pops += 1
        self._marks = (len(session.decisions), len(session.decision.windows))

    def after_pop(self, session, now, tag, payload, outcome, ledger) -> None:
        decisions, windows = self._marks
        passes = [  # field dicts: ``asdict`` would deep-copy every value
            {name: getattr(record, name) for name in record.__dataclass_fields__
             if name != "reopt_seconds"}  # wall-clock: not derivable
            for record in session.decision.windows[windows:]
        ]
        completions = []
        if ledger is not None:
            self.ledgers.append(ledger)
            completions.append(ledger.to_dict())
        outputs = [session.decisions[decisions:], passes, completions]
        if any(outputs):
            self.digest = _fold(self.digest, outputs)
        if (
            self.writer is not None
            and self.snapshot_every
            and self.pops % self.snapshot_every == 0
        ):
            if self.checkpoint is not None:
                self.checkpoint()
            else:
                self.snapshot(session)

    def finish(self, session) -> None:
        if self.writer is not None:
            self.writer.append(finish_record(self.pops, self.digest))

    def snapshot(
        self, session: OnlineSession, extra: dict | None = None
    ) -> int:
        """Journal a full checkpoint of ``session``; returns its offset."""
        return self.writer.append(snapshot_record(
            session, session.clock._timeline, self.pops, self.digest,
            self.ledgers, extra,
        ))


# -- recovery ---------------------------------------------------------------

@dataclass
class RecoveredRun:
    """Everything :func:`recover` reconstructs from a journal."""

    meta: dict
    session: OnlineSession
    clock: SimClock
    timeline: Timeline
    pops: int                       #: total pops replayed (snapshot + tail)
    digest: str                     #: output digest after the last pop
    ledgers: list[IVLedgerEntry]
    arrivals: list[ArrivalRecord]   #: every journaled arrival, in order
    valid_bytes: int                #: prefix length that validated
    tail_error: DurabilityError | None  #: torn/corrupt tail, if any
    snapshot_pops: int              #: pops at the restored snapshot (0 = none)


def recover(
    path,
    scheduler: "OnlineMQOScheduler",
    use_snapshot: bool = True,
    on_restore: "Callable[[dict, int], None] | None" = None,
    observers: "Sequence[SessionObserver]" = (),
) -> RecoveredRun:
    """Rebuild the crashed run's exact state from its journal.

    ``scheduler`` must be configured identically to the crashed run's
    (same seeds, GA config, federation) — determinism of the rebuild is
    what makes replay exact.  A caller rebuilds its *own* bookkeeping
    alongside the session: ``on_restore(extra, pops)`` runs after a
    snapshot restore, and every replayed tail event goes through
    :func:`~repro.mqo.online.step` with ``observers`` — the serving layer
    re-emits its lifecycle trace and results through the same observers
    its live loop uses.

    Raises :class:`~repro.errors.DurabilityError` on a missing/invalid
    header, a schema other than :data:`SCHEMA_VERSION`, or any replayed
    ``pop`` (event or digest), ``snapshot`` or ``finish`` record that
    disagrees with the journal (offset included).  A torn *tail* does not
    raise — it is truncation damage, reported via
    :attr:`RecoveredRun.tail_error`.
    """
    records, valid_bytes, tail_error = scan_journal(path)
    if not records:
        raise DurabilityError(
            f"journal {path} has no valid records", offset=0
        )
    header, header_offset = records[0]
    if header.get("kind") != "header":
        raise DurabilityError(
            f"journal {path} does not start with a header record",
            offset=header_offset,
        )
    if header.get("schema") != SCHEMA_VERSION:
        raise DurabilityError(
            f"unsupported journal schema {header.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})",
            offset=header_offset,
        )
    meta = header.get("meta", {})

    # The workload is the union of every journaled arrival; extra (future)
    # queries never influence decisions over the pending set.
    workload = Workload()
    arrivals: list[ArrivalRecord] = []
    snapshot = None
    snapshot_index = 0
    for index, (record, _offset) in enumerate(records):
        kind = record["kind"]
        if kind == "arrival":
            workload.add(
                query_from_dict(record["query"]), arrival=record["time"]
            )
            arrivals.append(ArrivalRecord(
                record["qid"], record["time"], record["pops_before"]
            ))
        elif kind == "snapshot" and use_snapshot:
            snapshot = record
            snapshot_index = index

    timeline = Timeline()
    clock = SimClock(timeline)
    session = scheduler.session(workload, clock)
    # Counts the replayed pops, recomputes each completion's ledger and
    # chains the output digest the journal's audit records are checked on.
    book = JournalObserver(None)
    start = 1  # skip the header
    if snapshot is not None:
        timeline.restore(snapshot["timeline"])
        session.restore_state(snapshot["session"])
        book = JournalObserver(
            None,
            [IVLedgerEntry.from_dict(entry) for entry in snapshot["ledgers"]],
            pops=int(snapshot["pops"]),
            digest=snapshot["digest"],
        )
        start = snapshot_index + 1
        if on_restore is not None:
            on_restore(snapshot.get("extra", {}), book.pops)
    snapshot_pops = book.pops
    observers = (book, *observers)

    for record, offset in records[start:]:
        kind = record["kind"]
        if kind == "arrival":
            clock.push(record["time"], "arrival", record["qid"])
        elif kind == "pop":
            if not clock:
                raise DurabilityError(
                    f"journal pops an event at offset {offset} but the "
                    f"replayed heap is empty",
                    offset=offset,
                )
            now, tag, payload = clock.pop()
            replayed = (now, tag, payload, book.digest)
            recorded = (
                record["time"], record["tag"], record["payload"],
                record["digest"],
            )
            if replayed != recorded:
                raise DurabilityError(
                    f"journal diverges at offset {offset}: recorded pop "
                    f"(time, tag, payload, digest) {recorded!r} but replay "
                    f"gives {replayed!r}",
                    offset=offset,
                )
            step(session, now, tag, payload, observers)
        elif kind in ("snapshot", "finish"):
            replayed = (book.pops, book.digest)
            recorded = (record["pops"], record["digest"])
            if replayed != recorded:
                raise DurabilityError(
                    f"journal diverges at offset {offset}: {kind} record "
                    f"(pops, digest) {recorded!r} but replay reached "
                    f"{replayed!r}",
                    offset=offset,
                )
        elif kind == "header":
            raise DurabilityError(
                f"unexpected second header at offset {offset}",
                offset=offset,
            )
        else:
            raise DurabilityError(
                f"unknown record kind {kind!r} at offset {offset}",
                offset=offset,
            )

    return RecoveredRun(
        meta=meta,
        session=session,
        clock=clock,
        timeline=timeline,
        pops=book.pops,
        digest=book.digest,
        ledgers=book.ledgers,
        arrivals=arrivals,
        valid_bytes=valid_bytes,
        tail_error=tail_error,
        snapshot_pops=snapshot_pops,
    )


def run_differences(reference, other) -> list[str]:
    """Every way two finished runs differ; ``[]`` means bit-equal.

    Compares the decision log, the window records, every IV ledger entry
    field for field (``other``'s must also recompute bit-equal) and the
    admission counters — everything but wall-clock re-optimization time,
    the one legitimately non-deterministic quantity.  Takes anything with
    a ``session`` and ``ledgers``: journaled, resumed or recovered runs.
    """
    differences = []
    if reference.session.decisions != other.session.decisions:
        differences.append("decision logs differ")
    if [entry.to_dict() for entry in reference.ledgers] != [
        entry.to_dict() for entry in other.ledgers
    ]:
        differences.append("IV ledgers differ")
    for entry in other.ledgers:
        if entry.recompute_iv() != entry.reported_iv:
            differences.append(
                f"qid {entry.query_id} ledger does not recompute bit-equal"
            )
    stats = [asdict(run.session.stats) for run in (reference, other)]
    for counters in stats:
        counters.pop("reopt_seconds")
    if stats[0] != stats[1]:
        differences.append(f"stats differ: {stats[0]} vs {stats[1]}")
    windows = [
        [
            (w.index, w.time, w.trigger, w.pending, w.groups, w.order)
            for w in run.session.decision.windows
        ]
        for run in (reference, other)
    ]
    if windows[0] != windows[1]:
        differences.append("window records differ")
    return differences


def verify_journal(path, make_scheduler) -> dict:
    """Audit a journal end-to-end; the CLI's ``resume-verify`` backend.

    Recovers the journal twice — once ignoring snapshots (pure replay
    from the first record) and once through the last snapshot — and
    requires both paths to agree bit-for-bit (:func:`run_differences`:
    decision log, windows, IV ledger, admission counters).  Together with
    the digest audit :func:`recover` already performs (every ``pop``,
    ``snapshot`` and ``finish`` record against the replay's output
    digest), a passing report means the journal, its snapshots and the
    scheduler's determinism are mutually consistent.

    ``make_scheduler`` is a zero-argument factory returning a scheduler
    configured like the journaled run's (each recovery needs a fresh
    one).  Returns a report dict; ``report["ok"]`` is the verdict.
    """
    scratch = recover(path, make_scheduler(), use_snapshot=False)
    via_snapshot = recover(path, make_scheduler(), use_snapshot=True)
    mismatches = run_differences(scratch, via_snapshot)
    return {
        "ok": not mismatches,
        "pops": scratch.pops,
        "decisions": len(scratch.session.decisions),
        "ledgers": len(scratch.ledgers),
        "arrivals": len(scratch.arrivals),
        "snapshot_pops": via_snapshot.snapshot_pops,
        "valid_bytes": scratch.valid_bytes,
        "tail_error": (
            str(scratch.tail_error) if scratch.tail_error else None
        ),
        "mismatches": mismatches,
    }
