"""Tests-only oracle for the trace checker: the batch audit it replaced.

:class:`repro.obs.checker.TraceChecker` is a fold: it observes one record
at a time and judges each query when its ledger arrives.  This module is
the checker as it was before that, unchanged: :meth:`TraceChecker.check`
takes a whole record list, groups it by query id and walks it once per
rule family, and :meth:`TraceChecker.check_fleet` re-derives ownership
and the ledger IV/CL sums from every shard's records.  The equivalence
tests assert that the fold's violations, sorted, equal this oracle's on
the planted traces, the golden traces and perturbed traced runs.
"""

from __future__ import annotations

import typing
from collections import defaultdict
from collections.abc import Sequence

from repro.errors import SimulationError
from repro.obs import events
from repro.obs.checker import PREFIX_SENSITIVE_RULES, Violation
from repro.obs.ledger import CONSERVATION_TOLERANCE, IVLedgerEntry
from repro.sim.trace import TraceRecord

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fleet import ShardTelemetry

__all__ = ["TraceChecker"]

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


class TraceChecker:
    """Replays a trace and reports every invariant violation.

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

    # -- entry points ----------------------------------------------------------

    def check(
        self, records: Sequence[TraceRecord], dropped: int = 0
    ) -> list[Violation]:
        """Audit a trace; returns all violations (empty = clean).

        ``dropped`` is the number of records a bounded tracer evicted
        before this trace was read (``tracer.dropped``).  When positive,
        :data:`PREFIX_SENSITIVE_RULES` are downgraded: the missing prefix
        makes them unverifiable, not violated.  Queries whose submit fell
        off the front are likewise excused from completeness rules.
        """
        violations: list[Violation] = []
        self._check_global_order(records, violations)
        lifecycles, ledgers = self._group(records, violations)
        for qid, query_records in sorted(lifecycles.items()):
            self._check_lifecycle(qid, query_records, violations)
        for qid, entry in sorted(ledgers.items()):
            self._check_ledger(entry, lifecycles.get(qid, []), violations)
        self._check_completeness(lifecycles, ledgers, violations)
        self._check_faults(records, violations)
        self._check_online(records, violations)
        self._check_alerts(records, violations)
        self._check_durability(records, violations)
        if dropped > 0:
            violations = [
                violation for violation in violations
                if violation.rule not in PREFIX_SENSITIVE_RULES
            ]
        return violations

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

    def check_fleet(
        self, shards: Sequence[ShardTelemetry], snapshot: dict
    ) -> list[Violation]:
        """Audit a fleet's shard traces against its fleet snapshot.

        ``shards`` is the :class:`~repro.obs.fleet.FleetCollector`'s
        :class:`~repro.obs.fleet.ShardTelemetry` list, each shard's records
        as it emitted them; ``snapshot`` the collector's fleet snapshot.
        Every single-process rule runs on each shard's records (with that
        shard's ``dropped_events``), its subjects prefixed ``shard{k}:``.
        A shard owns whole conflict groups, so only these rules look
        across shards:

        * ``shard-ownership`` — every query id appears on exactly one
          shard (conflict-group sharding must partition the stream);
        * ``fleet-dropped-surfaced`` — every shard has a
          ``dropped_events`` entry in the snapshot's shard panels;
        * ``fleet-iv-conservation`` / ``fleet-cl-conservation`` — per-shard
          ledger IV/CL sums re-derived from the trace (left-to-right, emit
          order) must equal the snapshot's per-shard values **bit-exactly**,
          and their shard-order sum must equal the fleet totals
          (including ``total_iv`` when the shard summaries carry it)
          bit-exactly — the fleet aggregation may not lose or invent a
          single ulp.
        """
        violations: list[Violation] = []
        panels = {
            int(panel["shard"]): panel for panel in snapshot.get("shards", [])
        }
        shards = sorted(shards, key=lambda telemetry: telemetry.shard)

        for telemetry in shards:
            for violation in self.check(
                telemetry.records, dropped=telemetry.dropped_events
            ):
                violations.append(Violation(
                    violation.rule,
                    f"shard{telemetry.shard}:{violation.subject}",
                    violation.message,
                ))

        owners: dict[int, set[int]] = defaultdict(set)
        for telemetry in shards:
            for record in telemetry.records:
                qid = record.detail.get("qid")
                if qid is None and record.kind == events.LEDGER:
                    qid = record.detail.get("query_id")
                if qid is not None:
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

        self._check_fleet_conservation(
            shards, panels, snapshot.get("fleet", {}), violations
        )
        return violations

    def _check_fleet_conservation(
        self,
        shards: list[ShardTelemetry],
        panels: dict[int, dict],
        fleet: dict,
        violations: list[Violation],
    ) -> None:
        """Trace → shard sums → fleet totals, every step ``==``-exact."""
        derived: dict[int, dict[str, float]] = {}
        for telemetry in shards:
            ledger_iv = 0.0
            ledger_cl = 0.0
            for record in telemetry.records:
                if record.kind != events.LEDGER:
                    continue
                detail = record.detail
                ledger_iv += detail.get("reported_iv", 0.0)
                ledger_cl += detail.get("completed_at", 0.0) - detail.get(
                    "submitted_at", 0.0
                )
            derived[telemetry.shard] = {
                "ledger_iv": ledger_iv, "ledger_cl": ledger_cl,
            }

        for key, rule in (
            ("ledger_iv", "fleet-iv-conservation"),
            ("ledger_cl", "fleet-cl-conservation"),
        ):
            total = 0.0
            for shard, values in derived.items():
                value = values[key]
                panel = panels.get(shard)
                if panel is not None and key in panel and panel[key] != value:
                    violations.append(Violation(
                        rule, f"shard{shard}",
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

    # -- grouping -----------------------------------------------------------

    def _group(
        self, records: Sequence[TraceRecord], violations: list[Violation]
    ) -> tuple[dict[int, list[TraceRecord]], dict[int, IVLedgerEntry]]:
        lifecycles: dict[int, list[TraceRecord]] = defaultdict(list)
        ledgers: dict[int, IVLedgerEntry] = {}
        for record in records:
            if record.kind not in events.QUERY_LIFECYCLE_KINDS:
                continue
            if record.kind == events.LEDGER:
                try:
                    entry = IVLedgerEntry.from_dict(record.detail)
                except (KeyError, TypeError):
                    violations.append(Violation(
                        "ledger-well-formed", record.subject,
                        "ledger record is missing required fields",
                    ))
                    continue
                if entry.query_id in ledgers:
                    violations.append(Violation(
                        "ledger-unique", record.subject,
                        f"duplicate ledger entry for qid {entry.query_id}",
                    ))
                ledgers[entry.query_id] = entry
                lifecycles[entry.query_id].append(record)
                continue
            qid = record.detail.get("qid")
            if qid is None:
                violations.append(Violation(
                    "qid-present", record.subject,
                    f"lifecycle event {record.kind!r} lacks a qid",
                ))
                continue
            lifecycles[qid].append(record)
        return dict(lifecycles), ledgers

    # -- rules ------------------------------------------------------------------

    def _check_global_order(
        self, records: Sequence[TraceRecord], violations: list[Violation]
    ) -> None:
        last = None
        for record in records:
            if last is not None and record.time < last:
                violations.append(Violation(
                    "time-monotonic", record.subject,
                    f"record at {record.time} after {last}",
                ))
            last = record.time

    def _check_lifecycle(
        self,
        qid: int,
        records: list[TraceRecord],
        violations: list[Violation],
    ) -> None:
        subject = records[0].subject if records else f"qid:{qid}"
        last_rank = -1
        last_kind = None
        counts: dict[str, int] = defaultdict(int)
        site_granted: dict[int, int] = defaultdict(int)
        site_started: dict[int, int] = defaultdict(int)
        for record in records:
            rank = _RANK[record.kind]
            counts[record.kind] += 1
            if rank < last_rank:
                violations.append(Violation(
                    "causal-order", subject,
                    f"{record.kind!r} (qid {qid}) after {last_kind!r}",
                ))
            last_rank = max(last_rank, rank)
            last_kind = record.kind
            site = record.detail.get("site")
            if record.kind == events.LEG_START and site is not None:
                site_started[site] += 1
            elif record.kind == events.LEG_GRANTED and site is not None:
                if site_started[site] == 0:
                    violations.append(Violation(
                        "leg-order", subject,
                        f"leg granted at site {site} before any leg.start",
                    ))
                site_granted[site] += 1
            elif record.kind == events.LEG_DONE and site is not None:
                if site_granted[site] == 0:
                    violations.append(Violation(
                        "leg-order", subject,
                        f"leg done at site {site} before any grant",
                    ))
        for kind in (events.SUBMIT, events.PLAN, events.COMPLETE, events.FAILED):
            if counts[kind] > 1:
                violations.append(Violation(
                    "event-unique", subject,
                    f"{counts[kind]} {kind!r} events for qid {qid}",
                ))
        if counts[events.COMPLETE] and counts[events.FAILED]:
            violations.append(Violation(
                "event-unique", subject,
                f"qid {qid} both completed and failed",
            ))

    def _check_ledger(
        self,
        entry: IVLedgerEntry,
        records: list[TraceRecord],
        violations: list[Violation],
    ) -> None:
        subject = f"{entry.query}#{entry.query_id}"

        # IV-ledger consistency: the headline bit-identity invariant.
        recomputed = entry.recompute_iv()
        if recomputed != entry.reported_iv:
            violations.append(Violation(
                "iv-recompute", subject,
                f"ledger recomputes IV {recomputed!r} but the run reported "
                f"{entry.reported_iv!r}",
            ))
        if entry.failed and entry.reported_iv != 0.0:
            violations.append(Violation(
                "iv-failed-zero", subject,
                f"failed query reported IV {entry.reported_iv!r}",
            ))

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
                violations.append(Violation(
                    "phase-order", subject, f"{later} {t1} before {earlier} {t0}",
                ))

        cl = entry.computational_latency
        if not entry.failed:
            # Latency conservation: phases must sum back to CL.
            drift = abs(cl - entry.phase_sum)
            if drift > self.tolerance * max(1.0, abs(cl)):
                violations.append(Violation(
                    "cl-conservation", subject,
                    f"CL {cl!r} != phase sum {entry.phase_sum!r} "
                    f"(drift {drift:.3e})",
                ))
            queue_span = entry.local_granted_at - entry.remote_done_at
            if abs(entry.queue_wait - queue_span) > self.tolerance * max(
                1.0, abs(queue_span)
            ):
                violations.append(Violation(
                    "queue-wait", subject,
                    f"queue_wait {entry.queue_wait!r} but timestamps span "
                    f"{queue_span!r}",
                ))

        # SL provenance: the stalest realized version decides SL.
        if entry.versions:
            stalest = min(
                version.realized_freshness for version in entry.versions
            )
            if entry.data_timestamp != stalest:
                violations.append(Violation(
                    "sl-provenance", subject,
                    f"data_timestamp {entry.data_timestamp!r} != stalest "
                    f"realized freshness {stalest!r}",
                ))
            for version in entry.versions:
                if version.kind not in ("base", "replica"):
                    violations.append(Violation(
                        "sl-provenance", subject,
                        f"{version.table}: unknown version kind {version.kind!r}",
                    ))
                if version.realized_freshness > entry.completed_at:
                    violations.append(Violation(
                        "sl-provenance", subject,
                        f"{version.table}: realized freshness "
                        f"{version.realized_freshness!r} after completion",
                    ))
                if (
                    version.kind == "replica"
                    and version.last_sync_at is not None
                    and version.last_sync_at != version.realized_freshness
                ):
                    violations.append(Violation(
                        "sl-provenance", subject,
                        f"{version.table}: last_sync_at disagrees with "
                        f"realized freshness",
                    ))

        # The event stream and the ledger must tell the same story.
        by_kind = {record.kind: record for record in records}
        submit = by_kind.get(events.SUBMIT)
        if submit is not None and submit.time != entry.submitted_at:
            violations.append(Violation(
                "event-ledger-agree", subject,
                f"submit event at {submit.time!r} but ledger says "
                f"{entry.submitted_at!r}",
            ))
        complete = by_kind.get(events.COMPLETE)
        if complete is not None:
            if complete.time != entry.completed_at:
                violations.append(Violation(
                    "event-ledger-agree", subject,
                    f"complete event at {complete.time!r} but ledger says "
                    f"{entry.completed_at!r}",
                ))
            for key, expected in (
                ("iv", entry.reported_iv),
                ("cl", cl),
                ("sl", entry.synchronization_latency),
            ):
                observed = complete.detail.get(key)
                if observed is not None and observed != expected:
                    violations.append(Violation(
                        "event-ledger-agree", subject,
                        f"complete event {key}={observed!r} but ledger "
                        f"implies {expected!r}",
                    ))

    def _check_completeness(
        self,
        lifecycles: dict[int, list[TraceRecord]],
        ledgers: dict[int, IVLedgerEntry],
        violations: list[Violation],
    ) -> None:
        if not self.require_complete:
            return
        for qid, records in sorted(lifecycles.items()):
            kinds = {record.kind for record in records}
            subject = records[0].subject
            if events.SUBMIT in kinds and not (
                {events.COMPLETE, events.FAILED} & kinds
            ):
                violations.append(Violation(
                    "query-completes", subject,
                    f"qid {qid} was submitted but never completed or failed",
                ))
            if events.EXEC_START in kinds and qid not in ledgers:
                violations.append(Violation(
                    "ledger-present", subject,
                    f"qid {qid} executed without an audit ledger entry",
                ))

    def _check_online(
        self, records: Sequence[TraceRecord], violations: list[Violation]
    ) -> None:
        """Online-MQO invariants: window ordering and admission consistency.

        * **window-monotonic** — ``mqo.window`` indices strictly increase;
        * **admit-unique** / **shed-unique** — a query is admitted at most
          once per admission (re-queues are flagged ``requeued``) and shed
          at most once, never both;
        * **window-order-admitted** — every query a window orders was
          admitted before that window record;
        * **shed-no-exec** — a shed query never starts executing.
        """
        last_window = -1
        admitted: set[int] = set()
        shed: set[int] = set()
        executed: set[int] = set()
        for record in records:
            if record.kind == events.MQO_WINDOW:
                index = record.detail.get("index", -1)
                if index <= last_window:
                    violations.append(Violation(
                        "window-monotonic", record.subject,
                        f"window index {index} after {last_window}",
                    ))
                last_window = max(last_window, index)
                for qid in record.detail.get("order", []):
                    if qid not in admitted:
                        violations.append(Violation(
                            "window-order-admitted", record.subject,
                            f"window orders qid {qid} before its admission",
                        ))
            elif record.kind == events.MQO_ADMIT:
                qid = record.detail.get("qid")
                if qid in shed:
                    violations.append(Violation(
                        "admit-shed-exclusive", record.subject,
                        f"qid {qid} admitted after being shed",
                    ))
                if qid in admitted and not record.detail.get("requeued"):
                    violations.append(Violation(
                        "admit-unique", record.subject,
                        f"qid {qid} admitted twice",
                    ))
                admitted.add(qid)
            elif record.kind == events.MQO_SHED:
                qid = record.detail.get("qid")
                if qid in shed:
                    violations.append(Violation(
                        "shed-unique", record.subject,
                        f"qid {qid} shed twice",
                    ))
                if qid in admitted:
                    violations.append(Violation(
                        "admit-shed-exclusive", record.subject,
                        f"qid {qid} shed after being admitted",
                    ))
                shed.add(qid)
            elif record.kind in (events.EXEC_START, events.COMPLETE):
                qid = record.detail.get("qid")
                if qid is not None:
                    executed.add(qid)
        for qid in sorted(shed & executed):
            violations.append(Violation(
                "shed-no-exec", f"qid:{qid}",
                f"qid {qid} was shed by admission control but executed",
            ))

    def _check_alerts(
        self, records: Sequence[TraceRecord], violations: list[Violation]
    ) -> None:
        """SLO alert invariants.

        * **alert-alternation** — per rule subject, ``alert.open`` and
          ``alert.close`` strictly alternate starting with an open, and
          no alert is left open at end of trace (prefix-sensitive: a
          close whose open was evicted is excused when drops occurred);
        * **alert-well-formed** — every alert event names its rule,
          metric, value and thresholds;
        * **alert-window** — the windows reference real times inside the
          trace: an open's ``since`` is when the breach began (≤ the open
          time, within the trace span) and a close's ``opened_at`` equals
          the matching open event's time.
        """
        open_at: dict[str, float | None] = {}
        span_start = records[0].time if records else 0.0
        for record in records:
            if record.kind not in events.ALERT_KINDS:
                continue
            for key in ("rule", "metric", "value", "threshold", "clear"):
                if key not in record.detail:
                    violations.append(Violation(
                        "alert-well-formed", record.subject,
                        f"{record.kind!r} event lacks {key!r}",
                    ))
            previous = open_at.get(record.subject)
            if record.kind == events.ALERT_OPEN:
                if previous is not None:
                    violations.append(Violation(
                        "alert-alternation", record.subject,
                        f"alert opened at {record.time} while already open "
                        f"since {previous}",
                    ))
                open_at[record.subject] = record.time
                since = record.detail.get("since")
                if since is not None and not (
                    span_start <= since <= record.time
                ):
                    violations.append(Violation(
                        "alert-window", record.subject,
                        f"open at {record.time} references breach start "
                        f"{since} outside the trace window",
                    ))
            else:  # ALERT_CLOSE
                if previous is None:
                    violations.append(Violation(
                        "alert-alternation", record.subject,
                        f"alert closed at {record.time} without being open",
                    ))
                else:
                    opened_at = record.detail.get("opened_at")
                    if opened_at is not None and opened_at != previous:
                        violations.append(Violation(
                            "alert-window", record.subject,
                            f"close references open at {opened_at} but the "
                            f"open event was at {previous}",
                        ))
                open_at[record.subject] = None
        # A run must not end mid-breach: every open needs a matching close
        # (SLOMonitor.finalize emits audited final closes at shutdown).
        for subject in sorted(open_at):
            opened = open_at[subject]
            if opened is not None:
                violations.append(Violation(
                    "alert-alternation", subject,
                    f"alert opened at {opened} is still open at end of "
                    f"trace (missing alert.close — finalize() not called?)",
                ))

    def _check_durability(
        self, records: Sequence[TraceRecord], violations: list[Violation]
    ) -> None:
        """Checkpoint/resume invariants across a crash boundary.

        * **resume-pops-monotonic** — every ``durable.resume`` carries the
          pop count it recovered to; successive resumes (and the
          checkpoints between them) must advance strictly, or a resume
          silently rewound history;
        * **resume-covers-checkpoint** — a resume must have replayed at
          least to the last checkpoint journaled before the crash;
        * **resume-no-resurrection** — a query that completed before a
          crash boundary must not start, complete or re-enter the system
          after it: recovery replays history, it does not re-execute it.
        """
        last_resume_pops = -1
        last_checkpoint_pops = -1
        completed: set[int] = set()
        for record in records:
            if record.kind == events.CHECKPOINT:
                pops = record.detail.get("pops", -1)
                if pops < last_checkpoint_pops:
                    violations.append(Violation(
                        "resume-pops-monotonic", record.subject,
                        f"checkpoint at pop {pops} after one at "
                        f"{last_checkpoint_pops}",
                    ))
                last_checkpoint_pops = max(last_checkpoint_pops, pops)
            elif record.kind == events.RESUME:
                pops = record.detail.get("pops", -1)
                if pops <= last_resume_pops:
                    violations.append(Violation(
                        "resume-pops-monotonic", record.subject,
                        f"resume at pop {pops} after a resume at "
                        f"{last_resume_pops}",
                    ))
                if pops < last_checkpoint_pops:
                    violations.append(Violation(
                        "resume-covers-checkpoint", record.subject,
                        f"resume replayed to pop {pops} but a checkpoint "
                        f"was journaled at pop {last_checkpoint_pops}",
                    ))
                last_resume_pops = max(last_resume_pops, pops)
            elif record.kind in (events.COMPLETE, events.FAILED):
                qid = record.detail.get("qid")
                if qid is not None:
                    completed.add(qid)
            elif (
                record.kind in (events.SUBMIT, events.EXEC_START)
                and last_resume_pops >= 0
            ):
                qid = record.detail.get("qid")
                if qid is not None and qid in completed:
                    violations.append(Violation(
                        "resume-no-resurrection", record.subject,
                        f"qid {qid} completed before the resume boundary "
                        f"but {record.kind!r} reappears after it",
                    ))

    def _check_faults(
        self, records: Sequence[TraceRecord], violations: list[Violation]
    ) -> None:
        # Outage edges must alternate down/up per site.
        state: dict[str, str] = {}
        for record in records:
            if record.kind not in (events.FAULT_DOWN, events.FAULT_UP):
                continue
            previous = state.get(record.subject)
            if previous == record.kind:
                violations.append(Violation(
                    "fault-alternation", record.subject,
                    f"consecutive {record.kind!r} events",
                ))
            state[record.subject] = record.kind


def sorted_violations(violations) -> list[Violation]:
    """A verdict in a canonical order: the fold and this oracle report the
    same violations, not in the same order."""
    return sorted(
        violations,
        key=lambda violation: (
            violation.rule, violation.subject, violation.message
        ),
    )
