"""Crash/resume equivalence harness: kill at any byte, resume, compare.

The headline durability proof.  :func:`journaled_run` drives an online
session under a :class:`~repro.sim.clocks.SimClock` while journaling
every record the durable layer defines — with an optional injected crash
at an arbitrary *byte* offset (torn write included).  :func:`resume_run`
recovers the journal and finishes the run.  :func:`crash_and_resume`
composes the two and, together with an uninterrupted reference run,
backs the acceptance criterion: the resumed run's decision log and IV
ledger are **bit-equal** to the uninterrupted one, at every crash point.

The reference and the resumed run are the *same driver* — only the crash
differs — so the comparison isolates exactly the property under test:
that journal + snapshot + replay lose nothing and invent nothing.  This
is the substrate for week-long, million-query horizons run in resumable
chunks (ROADMAP items 2 and 5): any prefix of a long run can be cut at a
power-loss-shaped boundary and continued without perturbing a single
decision.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass

from repro.durable.journal import InjectedCrash, JournalWriter, scan_journal
from repro.durable.recovery import (
    RecoveredRun,
    arrival_record,
    decision_record,
    header_record,
    ledger_record,
    pop_record,
    recover,
    reconcile,
    snapshot_record,
    window_record,
)
from repro.errors import OptimizationError
from repro.obs.ledger import IVLedgerEntry, completion_ledger
from repro.sim.clocks import SimClock

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.mqo.online import OnlineMQOScheduler, OnlineSession
    from repro.workload.query import Workload

__all__ = [
    "JournaledRun",
    "journaled_run",
    "resume_run",
    "crash_and_resume",
    "runs_equivalent",
]


@dataclass
class JournaledRun:
    """A finished (or resumed-and-finished) journaled run."""

    session: "OnlineSession"
    ledgers: list[IVLedgerEntry]
    pops: int
    resumed_at_pops: int | None = None  #: None = ran uninterrupted


class _Bookkeeper:
    """Per-pop journaling shared by the initial run and the resumed tail.

    Mirrors the serving loop's bookkeeping: after each handled event it
    journals any new decision-log entries and window records, and — on
    completions — synthesizes the ledger entry through the same shared
    constructor the live service uses, journaling it too.
    """

    def __init__(
        self,
        session: "OnlineSession",
        writer: JournalWriter | None,
        ledgers: list[IVLedgerEntry],
        decision_cursor: int = 0,
        window_cursor: int = 0,
    ) -> None:
        self.session = session
        self.writer = writer
        self.ledgers = ledgers
        self.decision_cursor = decision_cursor
        self.window_cursor = window_cursor

    def after_pop(self, now: float, tag: str, payload: object) -> None:
        entry = None
        if tag == "completion":
            qid = typing.cast(int, payload)
            assignment = self.session.started[qid]
            query = self.session.workload.query(qid)
            entry = completion_ledger(
                query.name,
                qid,
                query.business_value,
                assignment.rates,
                submitted_at=self.session.workload.arrival_of(qid),
                begin=assignment.begin,
                completed_at=now,
                data_timestamp=assignment.data_timestamp,
            )
            self.ledgers.append(entry)
        self.flush_records()
        if entry is not None and self.writer is not None:
            self.writer.append(ledger_record(entry))

    def flush_records(self) -> None:
        """Journal decision-log and window entries not yet written."""
        if self.writer is not None:
            for entry in self.session.decisions[self.decision_cursor:]:
                self.writer.append(decision_record(entry))
            for record in self.session.decision.windows[self.window_cursor:]:
                self.writer.append(window_record(record))
        self.decision_cursor = len(self.session.decisions)
        self.window_cursor = len(self.session.decision.windows)


def journaled_run(
    scheduler: "OnlineMQOScheduler",
    workload: "Workload",
    path,
    snapshot_every: int = 0,
    fsync_every: int = 1,
    crash_after_bytes: int | None = None,
    meta: dict | None = None,
) -> JournaledRun:
    """Run the full arrival stream under SimClock, journaling everything.

    The driver is :meth:`OnlineMQOScheduler.run` with a journal bolted
    on: all arrivals push up front (heap position 0), then events pop to
    exhaustion and the session drains.  ``snapshot_every`` journals a
    full checkpoint every N pops (0 = never).  With
    ``crash_after_bytes`` set, the writer dies mid-record at that byte
    and :class:`~repro.durable.journal.InjectedCrash` propagates — the
    journal on disk then looks exactly like a power loss happened.
    """
    if len(workload) == 0:
        raise OptimizationError("cannot run an empty workload")
    writer = JournalWriter(
        path, fsync_every=fsync_every, crash_after_bytes=crash_after_bytes
    )
    clock = SimClock()
    session = scheduler.session(workload, clock)
    ordered = workload.sorted_by_arrival()
    session.arrivals_expected = len(ordered)
    run_meta = dict(meta or {})
    run_meta.setdefault("driver", "sim")
    run_meta.setdefault("arrivals_expected", len(ordered))
    run_meta.setdefault("accepting", False)
    ledgers: list[IVLedgerEntry] = []
    book = _Bookkeeper(session, writer, ledgers)
    pops = 0
    try:
        writer.append(header_record(run_meta))
        for query in ordered:
            arrival = workload.arrival_of(query.query_id)
            writer.append(arrival_record(query, arrival, pops_before=0))
            clock.push(arrival, "arrival", query.query_id)
        while clock:
            now, tag, payload = clock.pop()
            writer.append(pop_record(now, tag, payload))
            pops += 1
            session.handle(now, tag, payload)
            book.after_pop(now, tag, payload)
            if snapshot_every and pops % snapshot_every == 0:
                writer.append(snapshot_record(
                    session, clock._timeline, pops, ledgers
                ))
        session.drain()
        book.flush_records()
    finally:
        writer.close()
    return JournaledRun(session=session, ledgers=ledgers, pops=pops)


def resume_run(
    run: RecoveredRun, writer: JournalWriter | None = None
) -> JournaledRun:
    """Finish a recovered run: pop the restored heap dry, then drain.

    With ``writer`` (opened on the truncated journal), the continuation
    journals like the original run did — first reconciling any records
    the torn tail lost — so a resumed journal remains recoverable and
    verifiable; crash-during-resume composes by induction.
    """
    session, clock = run.session, run.clock
    if writer is not None:
        reconcile(run, writer)
    book = _Bookkeeper(
        session, writer, run.ledgers,
        decision_cursor=len(session.decisions),
        window_cursor=len(session.decision.windows),
    )
    pops = run.pops
    try:
        while clock:
            now, tag, payload = clock.pop()
            if writer is not None:
                writer.append(pop_record(now, tag, payload))
            pops += 1
            session.handle(now, tag, payload)
            book.after_pop(now, tag, payload)
        session.drain()
        book.flush_records()
    finally:
        if writer is not None:
            writer.close()
    return JournaledRun(
        session=session, ledgers=run.ledgers, pops=pops,
        resumed_at_pops=run.pops,
    )


def crash_and_resume(
    make_scheduler: "Callable[[], OnlineMQOScheduler]",
    workload: "Workload",
    path,
    crash_after_bytes: int,
    snapshot_every: int = 0,
    journal_resume: bool = True,
) -> JournaledRun:
    """Kill a journaled run at a byte offset, recover, finish it.

    ``make_scheduler`` must return a *fresh*, identically-configured
    scheduler per call (the crashed process and the recovering one are
    different processes in spirit — nothing in-memory survives).  If the
    crash point lies beyond the journal the run writes, the run simply
    completes and is returned uninterrupted.
    """
    import os

    try:
        return journaled_run(
            make_scheduler(), workload, path,
            snapshot_every=snapshot_every,
            crash_after_bytes=crash_after_bytes,
        )
    except InjectedCrash:
        pass
    records, _valid, _error = scan_journal(path)
    if not records:
        # The crash beat the header to stable storage: nothing durable
        # happened, so nothing needs recovering — run afresh.
        os.remove(path)
        return journaled_run(
            make_scheduler(), workload, path, snapshot_every=snapshot_every
        )
    recovered = recover(path, make_scheduler())
    writer = None
    if journal_resume:
        writer = JournalWriter(path, truncate_to=recovered.valid_bytes)
    # A crash inside the upfront arrival block loses arrivals the journal
    # never saw; the *driver* still owns the workload, so it re-supplies
    # them (exactly as a resumed sim driver re-reads its input file).
    # They can only be missing when no event ever popped, so re-pushing
    # in arrival order reproduces the reference run's FIFO sequence
    # numbers — same-time ties still pop in the original order.
    durable = {record.query_id for record in recovered.arrivals}
    for query in workload.sorted_by_arrival():
        if query.query_id in durable:
            continue
        arrival = workload.arrival_of(query.query_id)
        recovered.session.workload.add(query, arrival=arrival)
        if writer is not None:
            writer.append(
                arrival_record(query, arrival, pops_before=recovered.pops)
            )
        recovered.clock.push(arrival, "arrival", query.query_id)
    return resume_run(recovered, writer)


def runs_equivalent(reference: JournaledRun, other: JournaledRun) -> dict:
    """Bit-level comparison of two runs; the harness's pass condition.

    Compares the full decision log, every IV ledger entry field-for-field
    and the admission counters (re-optimization *time* excluded — it is
    wall-clock, the one legitimately non-deterministic quantity).
    Returns a report dict whose ``"equal"`` is the verdict.
    """
    report: dict = {"equal": True, "differences": []}

    def differ(message: str) -> None:
        report["equal"] = False
        report["differences"].append(message)

    if reference.session.decisions != other.session.decisions:
        differ("decision logs differ")
    ref_ledgers = [entry.to_dict() for entry in reference.ledgers]
    other_ledgers = [entry.to_dict() for entry in other.ledgers]
    if ref_ledgers != other_ledgers:
        differ("IV ledgers differ")
    for entry in other.ledgers:
        if entry.recompute_iv() != entry.reported_iv:
            differ(
                f"qid {entry.query_id} ledger does not recompute bit-equal"
            )
    ref_stats = asdict(reference.session.stats)
    other_stats = asdict(other.session.stats)
    ref_stats.pop("reopt_seconds")
    other_stats.pop("reopt_seconds")
    if ref_stats != other_stats:
        differ(f"stats differ: {ref_stats} vs {other_stats}")
    ref_windows = [
        (w.index, w.time, w.trigger, w.pending, w.groups, w.order)
        for w in reference.session.decision.windows
    ]
    other_windows = [
        (w.index, w.time, w.trigger, w.pending, w.groups, w.order)
        for w in other.session.decision.windows
    ]
    if ref_windows != other_windows:
        differ("window records differ")
    report["decisions"] = len(reference.session.decisions)
    report["ledgers"] = len(reference.ledgers)
    return report
