"""Crash/resume equivalence harness: kill at any byte, resume, compare.

The headline durability proof.  :func:`journaled_run` drives an online
session under a :class:`~repro.sim.clocks.SimClock` while journaling its
arrivals and digest-stamped pops — with an optional injected crash at an
arbitrary *byte* offset (torn write included).  :func:`resume_run`
recovers the journal and finishes the run.  :func:`crash_and_resume`
composes the two and, together with an uninterrupted reference run,
backs the acceptance criterion: the resumed run's decision log and IV
ledger are **bit-equal** to the uninterrupted one, at every crash point —
:func:`~repro.durable.recovery.run_differences` of the two is empty.

The reference and the resumed run are the *same driver* —
:func:`~repro.mqo.online.drive` with one
:class:`~repro.durable.recovery.JournalObserver`, only the crash differs —
so the comparison isolates exactly the property under test:
that journal + snapshot + replay lose nothing and invent nothing.  This
is the substrate for week-long, million-query horizons run in resumable
chunks: any prefix of a long run can be cut at a power-loss-shaped
boundary and continued without perturbing a single decision.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.durable.journal import InjectedCrash, JournalWriter, scan_journal
from repro.durable.recovery import (
    JournalObserver,
    RecoveredRun,
    arrival_record,
    header_record,
    recover,
)
from repro.errors import OptimizationError
from repro.mqo.online import drive
from repro.obs.ledger import IVLedgerEntry
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
]


@dataclass
class JournaledRun:
    """A finished (or resumed-and-finished) journaled run."""

    session: "OnlineSession"
    ledgers: list[IVLedgerEntry]
    pops: int
    resumed_at_pops: int | None = None  #: None = ran uninterrupted


def journaled_run(
    scheduler: "OnlineMQOScheduler",
    workload: "Workload",
    path,
    snapshot_every: int = 0,
    fsync_every: int = 1,
    crash_after_bytes: int | None = None,
    meta: dict | None = None,
) -> JournaledRun:
    """Run the full arrival stream under SimClock, journaling its inputs.

    The driver is :meth:`OnlineMQOScheduler.run`'s :func:`drive` with a
    journal observer: all arrivals push up front (heap position 0), then
    events pop to exhaustion.  ``snapshot_every``
    journals a full checkpoint every N pops (0 = never).  With
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
    run_meta = dict(meta or {})
    run_meta.setdefault("driver", "sim")
    journal = JournalObserver(writer, snapshot_every=snapshot_every)
    try:
        writer.append(header_record(run_meta))
        for query in session.push_arrivals():
            writer.append(arrival_record(
                query, workload.arrival_of(query.query_id), pops_before=0
            ))
        drive(session, clock, [journal])
    finally:
        writer.close()
    return JournaledRun(
        session=session, ledgers=journal.ledgers, pops=journal.pops
    )


def resume_run(
    run: RecoveredRun, writer: JournalWriter | None = None
) -> JournaledRun:
    """Finish a recovered run: pop the restored heap dry.

    With ``writer`` (opened on the truncated journal), the continuation
    journals like the original run did, its digest chain continuing from
    the recovered one, so a resumed journal remains recoverable and
    verifiable; crash-during-resume composes by induction.
    """
    journal = JournalObserver(
        writer, run.ledgers, pops=run.pops, digest=run.digest
    )
    try:
        drive(run.session, run.clock, [journal])
    finally:
        if writer is not None:
            writer.close()
    return JournaledRun(
        session=run.session, ledgers=run.ledgers, pops=journal.pops,
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
