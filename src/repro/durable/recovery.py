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
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, field

from repro.durable.journal import (
    SCHEMA_VERSION,
    JournalWriter,
    scan_journal,
)
from repro.errors import DurabilityError
from repro.mqo.online import (
    ArrivalRecord,
    OnlineSession,
    _decode_decision,
    _encode_decision,
)
from repro.obs.ledger import IVLedgerEntry, completion_ledger
from repro.sim.clocks import SimClock
from repro.sim.timeline import Timeline
from repro.workload.query import DSSQuery, Workload
from repro.workload.serialize import query_from_dict, query_to_dict

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.mqo.online import OnlineMQOScheduler

__all__ = [
    "header_record",
    "arrival_record",
    "pop_record",
    "decision_record",
    "window_record",
    "ledger_record",
    "snapshot_record",
    "stop_record",
    "RecoveredRun",
    "recover",
    "reconcile",
    "verify_journal",
]


# -- record constructors (the journal's schema, version 1) ------------------

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


def stop_record(pops: int) -> dict:
    """The driver stopped accepting submissions after this many pops."""
    return {"kind": "stop", "pops": pops}


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
    stop_pops: int | None
    valid_bytes: int                #: prefix length that validated
    tail_error: DurabilityError | None  #: torn/corrupt tail, if any
    snapshot_pops: int              #: pops at the restored snapshot (0 = none)
    snapshot_extra: dict = field(default_factory=dict)
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
    on_session: "Callable[[OnlineSession], None] | None" = None,
    on_restore: "Callable[[dict, int], None] | None" = None,
    on_event: "Callable[[float, str, object], None] | None" = None,
    on_pop: "Callable[[float, str, object, str | None, IVLedgerEntry | None], None] | None" = None,
) -> RecoveredRun:
    """Rebuild the crashed run's exact state from its journal.

    ``scheduler`` must be configured identically to the crashed run's
    (same seeds, GA config, federation) — determinism of the rebuild is
    what makes replay exact.  Four driver hooks let a caller rebuild its
    *own* bookkeeping alongside the session: ``on_session(session)``
    fires as soon as the fresh session exists (before anything replays);
    ``on_restore(extra, pops)`` after a snapshot restore;
    ``on_event(now, tag, payload)`` before each tail event is handled
    (the serving layer stamps its logical clock here, so trace records
    emitted *inside* the handler carry the right time); and
    ``on_pop(now, tag, payload, outcome, entry)`` after each tail event
    replays (``entry`` is the recomputed ledger entry on completion
    pops) — the serving layer re-emits its lifecycle trace through it.

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
    stop_pops: int | None = None
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
        elif kind == "stop":
            stop_pops = record["pops"]
        elif kind == "snapshot" and use_snapshot:
            snapshot = record
            snapshot_index = index

    timeline = Timeline()
    clock = SimClock(timeline)
    session = scheduler.session(workload, clock)
    session.arrivals_expected = int(meta.get("arrivals_expected", 0))
    session.accepting = bool(meta.get("accepting", False))
    if on_session is not None:
        on_session(session)
    ledgers: list[IVLedgerEntry] = []
    pops = 0
    snapshot_pops = 0
    snapshot_extra: dict = {}
    start = 1  # skip the header
    if snapshot is not None:
        timeline.restore(snapshot["timeline"])
        session.restore_state(snapshot["session"])
        ledgers = [
            IVLedgerEntry.from_dict(entry) for entry in snapshot["ledgers"]
        ]
        pops = snapshot_pops = int(snapshot["pops"])
        snapshot_extra = snapshot.get("extra", {})
        start = snapshot_index + 1
        if on_restore is not None:
            on_restore(snapshot_extra, pops)

    # Verification cursors start at the counts the replayed prefix (or the
    # restored snapshot) already accounts for.
    decision_cursor = sum(
        1 for record, _ in records[:start] if record["kind"] == "decision"
    )
    window_cursor = sum(
        1 for record, _ in records[:start] if record["kind"] == "window"
    )
    ledger_cursor = sum(
        1 for record, _ in records[:start] if record["kind"] == "ledger"
    )

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
            pops += 1
            if on_event is not None:
                on_event(now, tag, payload)
            outcome = session.handle(now, tag, payload)
            entry = None
            if tag == "completion":
                entry = _completion_entry(
                    session, typing.cast(int, payload), now
                )
                ledgers.append(entry)
            if on_pop is not None:
                on_pop(now, tag, payload, outcome, entry)
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
            expected_window = asdict(windows[window_cursor])
            expected_window["order"] = list(windows[window_cursor].order)
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
        elif kind == "stop":
            session.accepting = False
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
        pops=pops,
        ledgers=ledgers,
        arrivals=arrivals,
        stop_pops=stop_pops,
        valid_bytes=valid_bytes,
        tail_error=tail_error,
        snapshot_pops=snapshot_pops,
        snapshot_extra=snapshot_extra,
        journaled_decisions=decision_cursor,
        journaled_windows=window_cursor,
        journaled_ledgers=ledger_cursor,
    )


def _completion_entry(
    session: OnlineSession, qid: int, completed_at: float
) -> IVLedgerEntry:
    """The ledger entry for one replayed completion (shared constructor)."""
    assignment = session.started[qid]
    query = session.workload.query(qid)
    return completion_ledger(
        query.name,
        qid,
        query.business_value,
        assignment.rates,
        submitted_at=session.workload.arrival_of(qid),
        begin=assignment.begin,
        completed_at=completed_at,
        data_timestamp=assignment.data_timestamp,
    )


def reconcile(run: RecoveredRun, writer: JournalWriter) -> int:
    """Re-journal records the torn tail lost; returns how many.

    A crash can land between a ``pop`` record and the decision/window/
    ledger records its handling produced.  The replay recomputed them, so
    appending the missing suffix restores the invariant every verifier
    relies on: the journal's decision/window/ledger streams are complete
    prefixes of the session's.
    """
    appended = 0
    for entry in run.session.decisions[run.journaled_decisions:]:
        writer.append(decision_record(entry))
        appended += 1
    for record in run.session.decision.windows[run.journaled_windows:]:
        writer.append(window_record(record))
        appended += 1
    for ledger_entry in run.ledgers[run.journaled_ledgers:]:
        writer.append(ledger_record(ledger_entry))
        appended += 1
    run.journaled_decisions = len(run.session.decisions)
    run.journaled_windows = len(run.session.decision.windows)
    run.journaled_ledgers = len(run.ledgers)
    return appended


def verify_journal(path, make_scheduler) -> dict:
    """Audit a journal end-to-end; the CLI's ``resume-verify`` backend.

    Recovers the journal twice — once ignoring snapshots (pure replay
    from the first record) and once through the last snapshot — and
    requires both paths to agree bit-for-bit on the decision log, the IV
    ledger and the admission counters.  Together with the per-record
    verification :func:`recover` already performs (journaled decisions/
    windows/ledgers vs. replayed ones), a passing report means the
    journal, its snapshots and the scheduler's determinism are mutually
    consistent.

    ``make_scheduler`` is a zero-argument factory returning a scheduler
    configured like the journaled run's (each recovery needs a fresh
    one).  Returns a report dict; ``report["ok"]`` is the verdict.
    """
    scratch = recover(path, make_scheduler(), use_snapshot=False)
    via_snapshot = recover(path, make_scheduler(), use_snapshot=True)
    mismatches: list[str] = []
    if scratch.session.decisions != via_snapshot.session.decisions:
        mismatches.append(
            "decision log differs between scratch replay and snapshot "
            "recovery"
        )
    if [entry.to_dict() for entry in scratch.ledgers] != [
        entry.to_dict() for entry in via_snapshot.ledgers
    ]:
        mismatches.append(
            "IV ledger differs between scratch replay and snapshot recovery"
        )
    for entry in scratch.ledgers:
        if entry.recompute_iv() != entry.reported_iv:
            mismatches.append(
                f"ledger entry for qid {entry.query_id} does not recompute "
                f"bit-equal"
            )
    scratch_stats = asdict(scratch.session.stats)
    snapshot_stats = asdict(via_snapshot.session.stats)
    scratch_stats.pop("reopt_seconds")
    snapshot_stats.pop("reopt_seconds")
    if scratch_stats != snapshot_stats:
        mismatches.append("admission counters differ between recovery paths")
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
