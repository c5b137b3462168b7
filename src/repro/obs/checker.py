"""Trace invariant checking: one fold over the trace, a record at a time.

:class:`TraceChecker` observes :class:`~repro.sim.trace.TraceRecord`\\ s in
emit order — live, subscribed to a tracer (:meth:`TraceChecker.attach`),
or from a list (:meth:`TraceChecker.check` folds a fresh checker over it)
— and verifies, per query:

* **causal ordering** — lifecycle events appear in the only legal order
  (submit → plan → exec.start → leg events → remote.done → local.granted →
  local.done → complete), legs are granted before they finish, and global
  record time never decreases;
* **latency conservation** — the ledger's five phases sum to the reported
  CL (up to float telescoping), the local queue wait matches its
  timestamps, and the complete event agrees with the ledger bit-for-bit;
* **IV-ledger consistency** — recomputing IV from the audit ledger
  reproduces the reported IV **bit-identically**, SL equals the gap to the
  stalest realized version, and failed queries report IV 0.

Fault edges, online admission, SLO alerts and checkpoint/resume have
their own rules.  Each is a handler keyed by record kind; none walks the
trace.  A query's ledger is checked on arrival and dropped: per query id
the fold keeps only a fixed-size summary, what a later record for that id
needs to be judged as the whole trace would judge it.
:meth:`TraceChecker.finish` adds the end-of-trace rules.

Every failure is a :class:`Violation` naming the rule, the subject and
what went wrong; an empty list is the pass condition the regression and
property suites assert on.
"""

from __future__ import annotations

import typing
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs import events
from repro.obs.ledger import CONSERVATION_TOLERANCE, IVLedgerEntry
from repro.sim.trace import TraceRecord

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fleet import ShardTelemetry
    from repro.sim.trace import Tracer

__all__ = ["Violation", "ShardAudit", "TraceChecker"]

#: Causal rank of each lifecycle kind; equal ranks may interleave freely.
_RANK = {
    events.SUBMIT: 0,
    events.PLAN: 1,
    events.EXEC_START: 2,
    events.LEG_START: 3,
    events.LEG_BLOCKED: 3,
    events.LEG_GRANTED: 3,
    events.LEG_RETRY: 3,
    events.LEG_DONE: 3,
    events.LEG_EXHAUSTED: 3,
    events.FAILOVER: 3,
    events.REMOTE_DONE: 4,
    events.LOCAL_GRANTED: 5,
    events.LOCAL_DONE: 6,
    events.COMPLETE: 7,
    events.FAILED: 7,
    events.LEDGER: 8,
}


#: Leg stages a site reached, as bits of ``_Query.legs``.
_STARTED, _GRANTED = 1, 2


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


#: Rules that can fire *spuriously* when a bounded tracer evicted the oldest
#: records: they reason about events that precede retained ones (a granted
#: leg whose ``leg.start`` was dropped, a window ordering an admission that
#: fell off the front, an ``alert.close`` whose open is gone).  With
#: ``dropped > 0`` these are downgraded — suppressed rather than reported —
#: because the trace prefix, not the run, is what's missing.
PREFIX_SENSITIVE_RULES = frozenset({
    "leg-order",
    "window-order-admitted",
    "alert-alternation",
    "alert-window",
})


def _downgrade(
    violations: Sequence[Violation], dropped: int
) -> list[Violation]:
    """``violations`` without :data:`PREFIX_SENSITIVE_RULES` when records
    were dropped."""
    return [
        violation for violation in violations
        if dropped <= 0 or violation.rule not in PREFIX_SENSITIVE_RULES
    ]


@dataclass(frozen=True)
class ShardAudit:
    """One shard's finished fold: all that
    :meth:`TraceChecker.check_fleet` reads of the shard's trace."""

    #: Violations before the shard's ``dropped_events`` downgrade.
    violations: tuple[Violation, ...]
    records: int
    ledger_entries: int
    #: Left-to-right sums over the ledger records, in emit order.
    ledger_iv: float
    ledger_cl: float
    #: Every query id a record named (``qid``, or a ledger's ``query_id``).
    qids: frozenset


class _Query:
    """What the fold keeps of one query id until :meth:`TraceChecker.finish`."""

    __slots__ = (
        "subject", "rank", "kind", "counts", "legs", "submitted_at",
        "complete", "findings", "stamp",
    )

    def __init__(self, subject: str) -> None:
        self.subject = subject  # the first record's
        self.rank = -1  # highest causal rank so far
        self.kind: str | None = None  # the previous record's kind
        self.counts: dict[str, int] = {}  # records per lifecycle kind
        self.legs: dict = {}  # site -> _STARTED | _GRANTED bits seen
        self.submitted_at: float | None = None  # the last submit's time
        self.complete: tuple | None = None  # the last complete's (t, iv, cl, sl)
        # The last ledger's entry-only violations (None: no ledger yet) and
        # its (subject, submitted_at, completed_at, iv, cl, sl), which the
        # submit and complete events must agree with.
        self.findings: list[Violation] | None = None
        self.stamp: tuple | None = None


class TraceChecker:
    """Folds a trace and reports every invariant violation.

    Parameters
    ----------
    tolerance:
        Relative tolerance for phase-sum conservation (float telescoping);
        identity checks (IV recomputation, event/ledger agreement) are
        exact.
    require_complete:
        Whether a query that was submitted must also have completed within
        the trace — disable when checking a deliberately truncated window.
    """

    def __init__(
        self,
        tolerance: float = CONSERVATION_TOLERANCE,
        require_complete: bool = True,
    ) -> None:
        if tolerance < 0:
            raise SimulationError("tolerance must be >= 0")
        self.tolerance = tolerance
        self.require_complete = require_complete
        self._violations: list[Violation] = []
        self._queries: dict[int, _Query] = {}
        #: Records observed, ledger records and their IV/CL sums, query ids.
        self.observed = 0
        self.ledger_entries = 0
        self.ledger_iv = 0.0
        self.ledger_cl = 0.0
        self.qids: set = set()
        self._span_start: float | None = None
        self._last_time: float | None = None
        self._last_fault: dict[str, str] = {}
        self._last_window = -1
        self._admitted: set = set()
        self._shed: set = set()
        self._executed: set = set()
        self._open_alerts: dict[str, float | None] = {}
        self._last_checkpoint_pops = -1
        self._last_resume_pops = -1
        self._completed: set = set()

    # -- entry points ----------------------------------------------------------

    def attach(self, tracer: "Tracer") -> "TraceChecker":
        """Subscribe to every future record of ``tracer``; returns self."""
        tracer.subscribe(self.observe)
        return self

    def check(
        self, records: Sequence[TraceRecord], dropped: int = 0
    ) -> list[Violation]:
        """Audit a trace; returns all violations (empty = clean).

        A fresh fold over ``records``; this checker's own state is left
        alone.  ``dropped`` is the number of records a bounded tracer
        evicted before this trace was read (``tracer.dropped``).  When
        positive, :data:`PREFIX_SENSITIVE_RULES` are downgraded: the
        missing prefix makes them unverifiable, not violated.  Queries
        whose submit fell off the front are likewise excused from
        completeness rules.
        """
        fold = TraceChecker(self.tolerance, self.require_complete)
        for record in records:
            fold.observe(record)
        return _downgrade(fold.finish(), dropped)

    def check_system(self, system) -> list[Violation]:
        """Audit a live :class:`~repro.federation.system.FederatedSystem`.

        Passes the tracer's drop counter through, so capacity-bounded
        traces are audited with prefix-sensitive rules downgraded.
        """
        if system.tracer is None:
            raise SimulationError(
                "system has no tracer (build it with SystemConfig(trace=True))"
            )
        return self.check(system.tracer.records, dropped=system.tracer.dropped)

    def assert_clean(
        self, records: Sequence[TraceRecord], dropped: int = 0
    ) -> None:
        """Raise :class:`SimulationError` listing violations, if any."""
        violations = self.check(records, dropped=dropped)
        if violations:
            listing = "\n".join(str(violation) for violation in violations)
            raise SimulationError(
                f"trace failed {len(violations)} invariant check(s):\n{listing}"
            )

    def check_fleet(
        self, shards: Sequence[ShardTelemetry], snapshot: dict
    ) -> list[Violation]:
        """Audit a fleet's shard verdicts against its fleet snapshot.

        ``shards`` is the :class:`~repro.obs.fleet.FleetCollector`'s
        :class:`~repro.obs.fleet.ShardTelemetry` list, each carrying the
        :class:`ShardAudit` its shard's fold returned; ``snapshot`` the
        collector's fleet snapshot.  Each shard's violations, downgraded by
        its ``dropped_events``, are reported with subjects prefixed
        ``shard{k}:``.  A shard owns whole conflict groups, so only these
        rules look across shards:

        * ``shard-ownership`` — every query id appears on exactly one
          shard (conflict-group sharding must partition the stream);
        * ``fleet-dropped-surfaced`` — every shard has a
          ``dropped_events`` entry in the snapshot's shard panels;
        * ``fleet-iv-conservation`` / ``fleet-cl-conservation`` — each
          shard's ledger IV/CL sums, as its fold derived them from the
          trace (left-to-right, emit order), must equal the snapshot's
          per-shard values **bit-exactly**, and their shard-order sum must
          equal the fleet totals (including ``total_iv`` when the shard
          summaries carry it) bit-exactly — the fleet aggregation may not
          lose or invent a single ulp.
        """
        violations: list[Violation] = []
        panels = {
            int(panel["shard"]): panel for panel in snapshot.get("shards", [])
        }
        shards = sorted(shards, key=lambda telemetry: telemetry.shard)

        owners: dict[int, set[int]] = defaultdict(set)
        for telemetry in shards:
            audit = telemetry.audit
            for violation in _downgrade(
                audit.violations, telemetry.dropped_events
            ):
                violations.append(Violation(
                    violation.rule,
                    f"shard{telemetry.shard}:{violation.subject}",
                    violation.message,
                ))
            for qid in audit.qids:
                owners[qid].add(telemetry.shard)
        for qid, owned_by in sorted(owners.items()):
            if len(owned_by) > 1:
                violations.append(Violation(
                    "shard-ownership", f"query:{qid}",
                    f"query appears on shards {sorted(owned_by)}; sharding "
                    f"must assign each query to exactly one worker",
                ))

        for telemetry in shards:
            panel = panels.get(telemetry.shard)
            if panel is None or "dropped_events" not in panel:
                violations.append(Violation(
                    "fleet-dropped-surfaced", f"shard{telemetry.shard}",
                    "shard's dropped_events counter is missing from the "
                    "fleet snapshot",
                ))

        fleet = snapshot.get("fleet", {})
        for key, rule in (
            ("ledger_iv", "fleet-iv-conservation"),
            ("ledger_cl", "fleet-cl-conservation"),
        ):
            total = 0.0
            for telemetry in shards:
                value = getattr(telemetry.audit, key)
                panel = panels.get(telemetry.shard)
                if panel is not None and key in panel and panel[key] != value:
                    violations.append(Violation(
                        rule, f"shard{telemetry.shard}",
                        f"snapshot reports {key}={panel[key]!r} but the "
                        f"shard's trace sums to {value!r} (must be bit-exact)",
                    ))
                total += value
            if key in fleet and fleet[key] != total:
                violations.append(Violation(
                    rule, "fleet",
                    f"fleet {key}={fleet[key]!r} but the shard-order sum of "
                    f"per-shard values is {total!r} (must be bit-exact)",
                ))

        if "total_iv" in fleet:
            shard_totals = [
                panels[shard]["total_iv"]
                for shard in sorted(panels)
                if "total_iv" in panels[shard]
            ]
            total = 0.0
            for value in shard_totals:
                total += value
            if shard_totals and fleet["total_iv"] != total:
                violations.append(Violation(
                    "fleet-iv-conservation", "fleet",
                    f"fleet total_iv={fleet['total_iv']!r} but the "
                    f"shard-order sum of per-shard totals is {total!r} "
                    f"(must be bit-exact)",
                ))
        return violations

    def check_slo(
        self,
        records: Sequence[TraceRecord],
        rules: Sequence,
        window: float = 10.0,
        half_life: float = 10.0,
        qos_max_staleness: float | None = None,
    ) -> list[Violation]:
        """Audit SLO *coverage*: every breach the trace implies was alerted.

        Replays the non-alert records through a fresh
        :class:`~repro.obs.slo.SLOMonitor` (same rules and registry
        parameters as the live run) and compares the derived alert
        sequence against the ``alert.open`` / ``alert.close`` events the
        run actually emitted.  A breach with no matching open, an open
        with no corresponding breach, or mismatched open times are each a
        ``slo-coverage`` violation.
        """
        from repro.obs.slo import SLOMonitor

        expected = SLOMonitor.replay(
            records, rules, window=window, half_life=half_life,
            qos_max_staleness=qos_max_staleness,
        ).alerts
        actual_opens: dict[str, list[float]] = defaultdict(list)
        for record in records:
            if record.kind == events.ALERT_OPEN:
                actual_opens[record.detail.get("rule", "?")].append(record.time)
        violations: list[Violation] = []
        expected_by_rule: dict[str, list[float]] = defaultdict(list)
        for alert in expected:
            expected_by_rule[alert.rule].append(alert.opened_at)
        for rule_name in sorted(set(expected_by_rule) | set(actual_opens)):
            want = expected_by_rule.get(rule_name, [])
            got = actual_opens.get(rule_name, [])
            if want != got:
                violations.append(Violation(
                    "slo-coverage", f"slo:{rule_name}",
                    f"replay derives breaches opening at {want} but the "
                    f"trace alerted at {got}",
                ))
        return violations

    # -- the fold -------------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Fold one record: every rule that can judge it now does."""
        self.observed += 1
        if self._last_time is None:
            self._span_start = record.time
        elif record.time < self._last_time:
            self._flag(
                "time-monotonic", record.subject,
                f"record at {record.time} after {self._last_time}",
            )
        self._last_time = record.time
        qid = record.detail.get("qid")
        if qid is None and record.kind == events.LEDGER:
            qid = record.detail.get("query_id")
        if qid is not None:
            self.qids.add(qid)
        handler = self._HANDLERS.get(record.kind)
        if handler is not None:
            handler(self, record)

    def finish(self) -> list[Violation]:
        """Every violation so far, plus the end-of-trace rules.

        Reads the fold without changing it.  Stream rules come first, in
        record order, then each query's, by query id.
        """
        violations = list(self._violations)
        for qid, query in sorted(self._queries.items()):
            self._judge(qid, query, violations)
        for qid in sorted(self._shed & self._executed):
            violations.append(Violation(
                "shed-no-exec", f"qid:{qid}",
                f"qid {qid} was shed by admission control but executed",
            ))
        # A run must not end mid-breach: every open needs a matching close
        # (SLOMonitor.finalize emits audited final closes at shutdown).
        for subject, opened in sorted(self._open_alerts.items()):
            if opened is not None:
                violations.append(Violation(
                    "alert-alternation", subject,
                    f"alert opened at {opened} is still open at end of "
                    f"trace (missing alert.close — finalize() not called?)",
                ))
        return violations

    def audit(self) -> ShardAudit:
        """:meth:`finish` with the fold's counts, sums and query ids."""
        return ShardAudit(
            tuple(self.finish()), self.observed, self.ledger_entries,
            self.ledger_iv, self.ledger_cl, frozenset(self.qids),
        )

    def _flag(self, rule: str, subject: str, message: str) -> None:
        self._violations.append(Violation(rule, subject, message))

    # -- per-query rules --------------------------------------------------------

    def _query(self, qid: int, subject: str, kind: str) -> _Query:
        """``qid``'s summary, advanced by a record of ``kind``: no
        lifecycle kind may rank below an earlier one (causal order)."""
        query = self._queries.get(qid)
        if query is None:
            query = self._queries[qid] = _Query(subject)
        rank = _RANK[kind]
        if rank < query.rank:
            self._flag(
                "causal-order", query.subject,
                f"{kind!r} (qid {qid}) after {query.kind!r}",
            )
        query.rank = max(query.rank, rank)
        query.kind = kind
        return query

    def _on_lifecycle(self, record: TraceRecord) -> None:
        detail = record.detail
        kind = record.kind
        qid = detail.get("qid")
        if qid is None:
            self._flag(
                "qid-present", record.subject,
                f"lifecycle event {kind!r} lacks a qid",
            )
            return
        query = self._query(qid, record.subject, kind)
        query.counts[kind] = query.counts.get(kind, 0) + 1
        if kind in (events.SUBMIT, events.EXEC_START):
            # Recovery replays history; it does not re-execute it.
            if self._last_resume_pops >= 0 and qid in self._completed:
                self._flag(
                    "resume-no-resurrection", record.subject,
                    f"qid {qid} completed before the resume boundary "
                    f"but {kind!r} reappears after it",
                )
        if kind in (events.EXEC_START, events.COMPLETE):
            self._executed.add(qid)
        if kind in (events.COMPLETE, events.FAILED):
            self._completed.add(qid)
        site = detail.get("site")
        if kind == events.SUBMIT:
            query.submitted_at = record.time
        elif kind == events.COMPLETE:
            query.complete = (
                record.time, detail.get("iv"), detail.get("cl"),
                detail.get("sl"),
            )
        elif kind == events.LEG_START and site is not None:
            query.legs[site] = query.legs.get(site, 0) | _STARTED
        elif kind == events.LEG_GRANTED and site is not None:
            if not query.legs.get(site, 0) & _STARTED:
                self._flag(
                    "leg-order", query.subject,
                    f"leg granted at site {site} before any leg.start",
                )
            query.legs[site] = query.legs.get(site, 0) | _GRANTED
        elif kind == events.LEG_DONE and site is not None:
            if not query.legs.get(site, 0) & _GRANTED:
                self._flag(
                    "leg-order", query.subject,
                    f"leg done at site {site} before any grant",
                )

    def _on_ledger(self, record: TraceRecord) -> None:
        detail = record.detail
        self.ledger_entries += 1
        self.ledger_iv += detail.get("reported_iv", 0.0)
        # CL exactly as IVLedgerEntry.computational_latency defines it.
        self.ledger_cl += detail.get("completed_at", 0.0) - detail.get(
            "submitted_at", 0.0
        )
        try:
            entry = IVLedgerEntry.from_dict(detail)
        except (KeyError, TypeError):
            self._flag(
                "ledger-well-formed", record.subject,
                "ledger record is missing required fields",
            )
            return
        query = self._query(entry.query_id, record.subject, events.LEDGER)
        if query.findings is not None:
            self._flag(
                "ledger-unique", record.subject,
                f"duplicate ledger entry for qid {entry.query_id}",
            )
        # The last ledger for a query id is the one its events must match.
        subject = f"{entry.query}#{entry.query_id}"
        query.findings = self._ledger_findings(entry, subject)
        query.stamp = (
            subject, entry.submitted_at, entry.completed_at,
            entry.reported_iv, entry.computational_latency,
            entry.synchronization_latency,
        )

    def _ledger_findings(
        self, entry: IVLedgerEntry, subject: str
    ) -> list[Violation]:
        """The rules one ledger entry answers on its own."""
        findings: list[Violation] = []

        def flag(rule: str, message: str) -> None:
            findings.append(Violation(rule, subject, message))

        # IV-ledger consistency: the headline bit-identity invariant.
        recomputed = entry.recompute_iv()
        if recomputed != entry.reported_iv:
            flag("iv-recompute", f"ledger recomputes IV {recomputed!r} but "
                 f"the run reported {entry.reported_iv!r}")
        if entry.failed and entry.reported_iv != 0.0:
            flag("iv-failed-zero",
                 f"failed query reported IV {entry.reported_iv!r}")

        # Timestamps delimit the phases in order.
        stamps = [
            ("submitted_at", entry.submitted_at),
            ("started_at", entry.started_at),
            ("remote_done_at", entry.remote_done_at),
            ("local_granted_at", entry.local_granted_at),
            ("local_done_at", entry.local_done_at),
            ("completed_at", entry.completed_at),
        ]
        for (earlier, t0), (later, t1) in zip(stamps, stamps[1:]):
            if t1 < t0:
                flag("phase-order", f"{later} {t1} before {earlier} {t0}")

        cl = entry.computational_latency
        if not entry.failed:
            # Latency conservation: phases must sum back to CL.
            drift = abs(cl - entry.phase_sum)
            if drift > self.tolerance * max(1.0, abs(cl)):
                flag("cl-conservation", f"CL {cl!r} != phase sum "
                     f"{entry.phase_sum!r} (drift {drift:.3e})")
            queue_span = entry.local_granted_at - entry.remote_done_at
            if abs(entry.queue_wait - queue_span) > self.tolerance * max(
                1.0, abs(queue_span)
            ):
                flag("queue-wait", f"queue_wait {entry.queue_wait!r} but "
                     f"timestamps span {queue_span!r}")

        # SL provenance: the stalest realized version decides SL.
        if entry.versions:
            stalest = min(
                version.realized_freshness for version in entry.versions
            )
            if entry.data_timestamp != stalest:
                flag("sl-provenance", f"data_timestamp {entry.data_timestamp!r}"
                     f" != stalest realized freshness {stalest!r}")
            for version in entry.versions:
                if version.kind not in ("base", "replica"):
                    flag("sl-provenance", f"{version.table}: unknown version "
                         f"kind {version.kind!r}")
                if version.realized_freshness > entry.completed_at:
                    flag("sl-provenance", f"{version.table}: realized "
                         f"freshness {version.realized_freshness!r} after "
                         f"completion")
                if (
                    version.kind == "replica"
                    and version.last_sync_at is not None
                    and version.last_sync_at != version.realized_freshness
                ):
                    flag("sl-provenance", f"{version.table}: last_sync_at "
                         f"disagrees with realized freshness")
        return findings

    def _judge(
        self, qid: int, query: _Query, violations: list[Violation]
    ) -> None:
        """The rules that need a query's whole history."""

        def flag(rule: str, subject: str, message: str) -> None:
            violations.append(Violation(rule, subject, message))

        count = query.counts.get
        for kind in (events.SUBMIT, events.PLAN, events.COMPLETE, events.FAILED):
            if count(kind, 0) > 1:
                flag("event-unique", query.subject,
                     f"{count(kind)} {kind!r} events for qid {qid}")
        if count(events.COMPLETE) and count(events.FAILED):
            flag("event-unique", query.subject,
                 f"qid {qid} both completed and failed")
        if query.findings is not None:
            violations.extend(query.findings)
            # The event stream and the ledger must tell the same story.
            subject, submitted_at, completed_at, *implied = query.stamp
            submit = query.submitted_at
            if submit is not None and submit != submitted_at:
                flag("event-ledger-agree", subject, f"submit event at "
                     f"{submit!r} but ledger says {submitted_at!r}")
            if query.complete is not None:
                completed, *observed = query.complete
                if completed != completed_at:
                    flag("event-ledger-agree", subject, f"complete event at "
                         f"{completed!r} but ledger says {completed_at!r}")
                for key, seen, expected in zip(
                    ("iv", "cl", "sl"), observed, implied
                ):
                    if seen is not None and seen != expected:
                        flag("event-ledger-agree", subject, f"complete event "
                             f"{key}={seen!r} but ledger implies {expected!r}")
        if not self.require_complete:
            return
        finished = count(events.COMPLETE) or count(events.FAILED)
        if count(events.SUBMIT) and not finished:
            flag("query-completes", query.subject,
                 f"qid {qid} was submitted but never completed or failed")
        if count(events.EXEC_START) and query.findings is None:
            flag("ledger-present", query.subject,
                 f"qid {qid} executed without an audit ledger entry")

    # -- stream rules -----------------------------------------------------------

    def _on_fault(self, record: TraceRecord) -> None:
        """Outage edges must alternate down/up per site."""
        if self._last_fault.get(record.subject) == record.kind:
            self._flag(
                "fault-alternation", record.subject,
                f"consecutive {record.kind!r} events",
            )
        self._last_fault[record.subject] = record.kind

    def _on_window(self, record: TraceRecord) -> None:
        """``mqo.window`` indices strictly increase (**window-monotonic**),
        and a window orders only admitted queries."""
        index = record.detail.get("index", -1)
        if index <= self._last_window:
            self._flag(
                "window-monotonic", record.subject,
                f"window index {index} after {self._last_window}",
            )
        self._last_window = max(self._last_window, index)
        for qid in record.detail.get("order", []):
            if qid not in self._admitted:
                self._flag(
                    "window-order-admitted", record.subject,
                    f"window orders qid {qid} before its admission",
                )

    def _on_admit(self, record: TraceRecord) -> None:
        """Admitted once per admission (re-queues carry ``requeued``),
        never after being shed."""
        qid = record.detail.get("qid")
        if qid in self._shed:
            self._flag(
                "admit-shed-exclusive", record.subject,
                f"qid {qid} admitted after being shed",
            )
        if qid in self._admitted and not record.detail.get("requeued"):
            self._flag(
                "admit-unique", record.subject, f"qid {qid} admitted twice",
            )
        self._admitted.add(qid)

    def _on_shed(self, record: TraceRecord) -> None:
        """Shed at most once, never after admission."""
        qid = record.detail.get("qid")
        if qid in self._shed:
            self._flag("shed-unique", record.subject, f"qid {qid} shed twice")
        if qid in self._admitted:
            self._flag(
                "admit-shed-exclusive", record.subject,
                f"qid {qid} shed after being admitted",
            )
        self._shed.add(qid)

    def _on_alert(self, record: TraceRecord) -> None:
        """SLO alerts: every event names its rule, metric, value and
        thresholds (**alert-well-formed**); per subject, opens and closes
        alternate, starting with an open (**alert-alternation**); an open's
        ``since`` lies in the trace span and before the open, and a close's
        ``opened_at`` is its open's time (**alert-window**)."""
        for key in ("rule", "metric", "value", "threshold", "clear"):
            if key not in record.detail:
                self._flag(
                    "alert-well-formed", record.subject,
                    f"{record.kind!r} event lacks {key!r}",
                )
        previous = self._open_alerts.get(record.subject)
        if record.kind == events.ALERT_OPEN:
            if previous is not None:
                self._flag(
                    "alert-alternation", record.subject,
                    f"alert opened at {record.time} while already open "
                    f"since {previous}",
                )
            self._open_alerts[record.subject] = record.time
            since = record.detail.get("since")
            if since is not None and not (
                self._span_start <= since <= record.time
            ):
                self._flag(
                    "alert-window", record.subject,
                    f"open at {record.time} references breach start "
                    f"{since} outside the trace window",
                )
            return
        if previous is None:
            self._flag(
                "alert-alternation", record.subject,
                f"alert closed at {record.time} without being open",
            )
        else:
            opened_at = record.detail.get("opened_at")
            if opened_at is not None and opened_at != previous:
                self._flag(
                    "alert-window", record.subject,
                    f"close references open at {opened_at} but the "
                    f"open event was at {previous}",
                )
        self._open_alerts[record.subject] = None

    def _on_checkpoint(self, record: TraceRecord) -> None:
        """Journaled checkpoints never go back (**resume-pops-monotonic**)."""
        pops = record.detail.get("pops", -1)
        if pops < self._last_checkpoint_pops:
            self._flag(
                "resume-pops-monotonic", record.subject,
                f"checkpoint at pop {pops} after one at "
                f"{self._last_checkpoint_pops}",
            )
        self._last_checkpoint_pops = max(self._last_checkpoint_pops, pops)

    def _on_resume(self, record: TraceRecord) -> None:
        """Resumes advance strictly (**resume-pops-monotonic**), each at
        least to the last checkpoint (**resume-covers-checkpoint**)."""
        pops = record.detail.get("pops", -1)
        if pops <= self._last_resume_pops:
            self._flag(
                "resume-pops-monotonic", record.subject,
                f"resume at pop {pops} after a resume at "
                f"{self._last_resume_pops}",
            )
        if pops < self._last_checkpoint_pops:
            self._flag(
                "resume-covers-checkpoint", record.subject,
                f"resume replayed to pop {pops} but a checkpoint "
                f"was journaled at pop {self._last_checkpoint_pops}",
            )
        self._last_resume_pops = max(self._last_resume_pops, pops)

    #: The handler of each record kind.
    _HANDLERS = {
        **dict.fromkeys(events.QUERY_LIFECYCLE_KINDS, _on_lifecycle),
        events.LEDGER: _on_ledger,
        events.FAULT_DOWN: _on_fault,
        events.FAULT_UP: _on_fault,
        events.MQO_WINDOW: _on_window,
        events.MQO_ADMIT: _on_admit,
        events.MQO_SHED: _on_shed,
        events.ALERT_OPEN: _on_alert,
        events.ALERT_CLOSE: _on_alert,
        events.CHECKPOINT: _on_checkpoint,
        events.RESUME: _on_resume,
    }
