"""Crash recovery: rebuild an exact :class:`OnlineSession` from a journal.

Recovery is a *literal replay*.  The journal records, in true order, every
event the crashed run acted on: each arrival push (with its heap position)
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

While replaying, every journaled ``decision``, ``window`` and ``ledger``
record is compared against the value the replay just recomputed; any
disagreement is a :class:`~repro.errors.DurabilityError` naming the byte
offset of the lying record.  Recovery therefore doubles as an audit: a
journal that recovers silently is a journal whose recorded history is
bit-consistent with what the scheduler would actually have done.

Writing the journal is one :class:`~repro.mqo.online.SessionObserver`,
:class:`JournalObserver`, shared by every journaled driver: the harness's
sim runs, their resumed tails and the live service.  Recovery replays each
popped event through the same :func:`~repro.mqo.online.step`, so a
caller's observers (the service's trace and results) see the replayed
tail exactly as they saw the live one.
"""

from __future__ import annotations

import typing
from collections import Counter
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
    _decode_decision,
    _encode_decision,
    step,
)
from repro.obs.ledger import IVLedgerEntry
from repro.sim.clocks import SimClock
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
    "decision_record",
    "window_record",
    "ledger_record",
    "snapshot_record",
    "JournalObserver",
    "RecoveredRun",
    "recover",
    "reconcile",
    "run_differences",
    "verify_journal",
]


# -- record constructors (the journal's schema, version 2) ------------------

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


def pop_record(time: float, tag: str, payload: object) -> dict:
    """One popped clock event — journal order *is* the event order."""
    return {"kind": "pop", "time": time, "tag": tag, "payload": payload}


def decision_record(entry: tuple) -> dict:
    """One decision-log tuple (admit/shed/defer/requeue/window/start)."""
    return {"kind": "decision", "entry": _encode_decision(entry)}


def window_record(record) -> dict:
    """One re-optimization pass's :class:`WindowRecord`."""
    data = asdict(record)
    data["order"] = list(record.order)
    return {"kind": "window", "record": data}


def ledger_record(entry: IVLedgerEntry) -> dict:
    """One completed query's IV audit ledger entry."""
    return {"kind": "ledger", "entry": entry.to_dict()}


def snapshot_record(
    session: OnlineSession,
    timeline: Timeline,
    pops: int,
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
        "session": session.capture_state(),
        "timeline": timeline.capture(),
        "ledgers": [entry.to_dict() for entry in ledgers],
        "extra": extra or {},
    }


# -- journaling a driven session --------------------------------------------

class JournalObserver(SessionObserver):
    """Journals a driven session and keeps its IV ledger.

    Per pop it appends the ``pop`` record before the session handles the
    event, then every decision-log entry, window record and ledger entry
    the handling produced — in that order — and, every ``snapshot_every``
    pops, a snapshot (or calls ``checkpoint``, which a driver with private
    state to persist supplies instead).  With ``writer=None`` it only keeps
    the ledger.

    ``pops`` counts every pop the journaled run made, including any before
    a resume; the cursors count the records already in the journal.
    """

    def __init__(
        self,
        writer: JournalWriter | None,
        ledgers: list[IVLedgerEntry] | None = None,
        pops: int = 0,
        snapshot_every: int = 0,
        checkpoint: "Callable[[], object] | None" = None,
    ) -> None:
        self.writer = writer
        self.ledgers = [] if ledgers is None else ledgers
        self.pops = pops
        self.snapshot_every = snapshot_every
        self.checkpoint = checkpoint
        self.journaled_decisions = 0
        self.journaled_windows = 0
        self.journaled_ledgers = len(self.ledgers)

    def before_pop(self, session, now, tag, payload) -> None:
        if self.writer is not None:
            self.writer.append(pop_record(now, tag, payload))
        self.pops += 1

    def after_pop(self, session, now, tag, payload, outcome, ledger) -> None:
        if ledger is not None:
            self.ledgers.append(ledger)
        self.flush(session)
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
        self.flush(session)

    def flush(self, session: OnlineSession) -> None:
        """Journal the decision, window and ledger records not yet written."""
        decisions = session.decisions
        windows = session.decision.windows
        if self.writer is not None:
            append = self.writer.append
            for entry in decisions[self.journaled_decisions:]:
                append(decision_record(entry))
            for record in windows[self.journaled_windows:]:
                append(window_record(record))
            for entry in self.ledgers[self.journaled_ledgers:]:
                append(ledger_record(entry))
        self.journaled_decisions = len(decisions)
        self.journaled_windows = len(windows)
        self.journaled_ledgers = len(self.ledgers)

    def snapshot(
        self, session: OnlineSession, extra: dict | None = None
    ) -> int:
        """Journal a full checkpoint of ``session``; returns its offset."""
        return self.writer.append(snapshot_record(
            session, session.clock._timeline, self.pops, self.ledgers, extra,
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
    ledgers: list[IVLedgerEntry]
    arrivals: list[ArrivalRecord]   #: every journaled arrival, in order
    valid_bytes: int                #: prefix length that validated
    tail_error: DurabilityError | None  #: torn/corrupt tail, if any
    snapshot_pops: int              #: pops at the restored snapshot (0 = none)
    #: How many decision/window/ledger records the valid journal already
    #: contains — a resuming writer re-journals anything the replay
    #: recomputed beyond these counts (records lost to the torn tail).
    journaled_decisions: int = 0
    journaled_windows: int = 0
    journaled_ledgers: int = 0


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
    header, a schema mismatch, or any journaled decision, window or
    ledger record that disagrees with the replayed one (offset included).
    A torn *tail* does not raise — it is truncation damage, reported via
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
    ledgers: list[IVLedgerEntry] = []
    snapshot_pops = 0
    start = 1  # skip the header
    if snapshot is not None:
        timeline.restore(snapshot["timeline"])
        session.restore_state(snapshot["session"])
        ledgers = [
            IVLedgerEntry.from_dict(entry) for entry in snapshot["ledgers"]
        ]
        snapshot_pops = int(snapshot["pops"])
        start = snapshot_index + 1
        if on_restore is not None:
            on_restore(snapshot.get("extra", {}), snapshot_pops)

    # Counts the replayed pops and recomputes each completion's ledger.
    book = JournalObserver(None, ledgers, pops=snapshot_pops)
    observers = (book, *observers)

    # Verification cursors start at the counts the replayed prefix (or the
    # restored snapshot) already accounts for.
    prefix = Counter(record["kind"] for record, _ in records[:start])
    decision_cursor = prefix["decision"]
    window_cursor = prefix["window"]
    ledger_cursor = prefix["ledger"]

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
            if (now, tag, payload) != (
                record["time"], record["tag"], record["payload"]
            ):
                raise DurabilityError(
                    f"journal diverges at offset {offset}: recorded pop "
                    f"({record['time']!r}, {record['tag']!r}, "
                    f"{record['payload']!r}) but replay pops "
                    f"({now!r}, {tag!r}, {payload!r})",
                    offset=offset,
                )
            step(session, now, tag, payload, observers)
        elif kind == "decision":
            if decision_cursor >= len(session.decisions):
                raise DurabilityError(
                    f"journal records a decision at offset {offset} the "
                    f"replay never made",
                    offset=offset,
                )
            expected = session.decisions[decision_cursor]
            if _decode_decision(record["entry"]) != expected:
                raise DurabilityError(
                    f"decision mismatch at offset {offset}: journal says "
                    f"{record['entry']!r}, replay decided {expected!r}",
                    offset=offset,
                )
            decision_cursor += 1
        elif kind == "window":
            windows = session.decision.windows
            if window_cursor >= len(windows):
                raise DurabilityError(
                    f"journal records a window pass at offset {offset} "
                    f"the replay never ran",
                    offset=offset,
                )
            expected_window = window_record(windows[window_cursor])["record"]
            recorded = dict(record["record"])
            # Re-optimization time is wall-clock — the one field replay
            # legitimately recomputes differently.
            recorded.pop("reopt_seconds", None)
            expected_window.pop("reopt_seconds", None)
            if recorded != expected_window:
                raise DurabilityError(
                    f"window record mismatch at offset {offset}",
                    offset=offset,
                )
            window_cursor += 1
        elif kind == "ledger":
            if ledger_cursor >= len(ledgers):
                raise DurabilityError(
                    f"journal records a ledger entry at offset {offset} "
                    f"for a completion the replay never reached",
                    offset=offset,
                )
            if record["entry"] != ledgers[ledger_cursor].to_dict():
                raise DurabilityError(
                    f"ledger entry at offset {offset} is not bit-equal "
                    f"to the replayed one",
                    offset=offset,
                )
            ledger_cursor += 1
        elif kind == "snapshot":
            continue  # superseded by the one we restored (or scratch mode)
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
        ledgers=ledgers,
        arrivals=arrivals,
        valid_bytes=valid_bytes,
        tail_error=tail_error,
        snapshot_pops=snapshot_pops,
        journaled_decisions=decision_cursor,
        journaled_windows=window_cursor,
        journaled_ledgers=ledger_cursor,
    )


def reconcile(
    run: RecoveredRun, writer: JournalWriter | None
) -> JournalObserver:
    """Re-journal records the torn tail lost; returns the journal observer
    that continues ``run`` (``writer=None``: keeps its ledger only).

    A crash can land between a ``pop`` record and the decision/window/
    ledger records its handling produced.  The replay recomputed them, so
    appending the missing suffix restores the invariant every verifier
    relies on: the journal's decision/window/ledger streams are complete
    prefixes of the session's.
    """
    journal = JournalObserver(writer, run.ledgers, pops=run.pops)
    journal.journaled_decisions = run.journaled_decisions
    journal.journaled_windows = run.journaled_windows
    journal.journaled_ledgers = run.journaled_ledgers
    journal.flush(run.session)
    return journal


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
    the per-record verification :func:`recover` already performs
    (journaled decisions/windows/ledgers vs. replayed ones), a passing
    report means the journal, its snapshots and the scheduler's
    determinism are mutually consistent.

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
