"""Unit tests: the trace invariant checker catches exactly what it should.

Every planted trace goes through :func:`check`, which also asserts that
the fold's violations equal the batch oracle's
(``tests/checker_oracle.py``), sorted.
"""

from __future__ import annotations

import pytest

from types import SimpleNamespace

from repro.baselines import ivqp_router
from repro.core.value import DiscountRates
from repro.errors import SimulationError
from repro.federation.system import SystemConfig, TableSpec, build_system
from repro.obs import TraceChecker, events
from repro.obs.checker import PREFIX_SENSITIVE_RULES
from repro.obs.ledger import IVLedgerEntry
from repro.sim.trace import TraceRecord, Tracer
from repro.workload.query import DSSQuery

from tests.checker_oracle import TraceChecker as OracleChecker
from tests.checker_oracle import sorted_violations


def traced_system(num_queries: int = 2):
    config = SystemConfig(
        tables=[
            TableSpec("a", site=0, row_count=1_000),
            TableSpec("b", site=1, row_count=2_000),
        ],
        replicated=["a"],
        sync_mode="periodic",
        sync_mean_interval=4.0,
        rates=DiscountRates(0.02, 0.02),
        trace=True,
        seed=2,
    )
    system = build_system(config, ivqp_router)
    for qid in range(num_queries):
        system.submit(
            DSSQuery(query_id=qid, name=f"q{qid}", tables=("a", "b")),
            at=3.0 * qid,
        )
    system.run()
    return system


def check(records, dropped: int = 0, **options):
    """The fold's violations, asserted equal (sorted) to the oracle's."""
    found = TraceChecker(**options).check(records, dropped=dropped)
    assert sorted_violations(found) == sorted_violations(
        OracleChecker(**options).check(records, dropped=dropped)
    )
    return found


def rules_of(violations) -> set[str]:
    return {violation.rule for violation in violations}


class TestCleanTraces:
    def test_real_run_is_clean(self):
        system = traced_system()
        assert check(system.tracer.records) == []
        TraceChecker().assert_clean(system.tracer.records)  # must not raise

    def test_check_system_entry_point(self):
        system = traced_system()
        assert TraceChecker().check_system(system) == []

    def test_check_system_requires_a_tracer(self):
        config = SystemConfig(
            tables=[TableSpec("a", site=0, row_count=100)], replicated=[]
        )
        system = build_system(config, ivqp_router)
        with pytest.raises(SimulationError):
            TraceChecker().check_system(system)

    def test_empty_trace_is_clean(self):
        assert check([]) == []


class TestTamperedTraces:
    """Each corruption must be caught by the rule named for it."""

    def test_tampered_iv_caught(self):
        records = traced_system().tracer.records
        for record in records:
            if record.kind == events.LEDGER:
                record.detail["reported_iv"] = record.detail["reported_iv"] + 0.1
        violations = check(records)
        assert "iv-recompute" in rules_of(violations)
        assert "event-ledger-agree" in rules_of(violations)

    def test_tampered_timestamp_breaks_conservation(self):
        records = traced_system().tracer.records
        for record in records:
            if record.kind == events.LEDGER:
                record.detail["local_done_at"] = (
                    record.detail["local_done_at"] + 0.5
                )
        violations = check(records)
        # Shifting one boundary changes two phases in opposite directions —
        # conservation survives — but the IV and the phase ordering cannot
        # all stay consistent with the event stream.
        assert rules_of(violations) & {
            "cl-conservation", "phase-order", "iv-recompute", "queue-wait"
        }

    def test_tampered_queue_wait_caught(self):
        records = traced_system().tracer.records
        for record in records:
            if record.kind == events.LEDGER:
                record.detail["queue_wait"] = record.detail["queue_wait"] + 1.0
        assert "queue-wait" in rules_of(check(records))

    def test_tampered_provenance_caught(self):
        records = traced_system().tracer.records
        for record in records:
            if record.kind == events.LEDGER and record.detail["versions"]:
                record.detail["versions"][0]["realized_freshness"] = -999.0
        assert "sl-provenance" in rules_of(check(records))

    def test_time_going_backwards_caught(self):
        records = traced_system().tracer.records
        shuffled = [records[-1]] + records[:-1]
        assert "time-monotonic" in rules_of(check(shuffled))

    def test_causal_disorder_caught(self):
        records = traced_system().tracer.records
        complete = next(r for r in records if r.kind == events.COMPLETE)
        submit_index = next(
            index for index, r in enumerate(records)
            if r.kind == events.SUBMIT
            and r.detail.get("qid") == complete.detail["qid"]
        )
        tampered = [
            TraceRecord(
                records[submit_index].time, complete.kind,
                complete.subject, dict(complete.detail),
            )
            if index == submit_index else record
            for index, record in enumerate(records)
        ]
        assert "causal-order" in rules_of(check(tampered))

    def test_duplicate_ledger_caught(self):
        records = traced_system().tracer.records
        ledger = next(r for r in records if r.kind == events.LEDGER)
        assert "ledger-unique" in rules_of(check(records + [ledger]))

    def test_late_resubmit_caught(self):
        # A submit after the query's ledger: the ledger must agree with the
        # last submit, so the fold keeps its time past the ledger.
        records = traced_system().tracer.records
        submit = [r for r in records if r.kind == events.SUBMIT][-1]
        late = TraceRecord(
            records[-1].time + 1.0, submit.kind, submit.subject,
            dict(submit.detail),
        )
        rules = rules_of(check(records + [late]))
        assert {"causal-order", "event-unique", "event-ledger-agree"} <= rules

    def test_malformed_ledger_caught(self):
        record = TraceRecord(1.0, events.LEDGER, "q", {"query": "q"})
        assert "ledger-well-formed" in rules_of(check([record]))

    def test_missing_qid_caught(self):
        record = TraceRecord(1.0, events.SUBMIT, "q", {})
        assert "qid-present" in rules_of(check([record]))

    def test_assert_clean_raises_with_listing(self):
        record = TraceRecord(1.0, events.SUBMIT, "q", {})
        with pytest.raises(SimulationError, match="qid-present"):
            TraceChecker().assert_clean([record])


class TestCompletenessAndFaults:
    def test_submitted_but_never_finished_caught(self):
        records = [
            record for record in traced_system().tracer.records
            if record.kind not in (events.COMPLETE, events.FAILED, events.LEDGER)
        ]
        rules = rules_of(check(records))
        assert "query-completes" in rules
        assert "ledger-present" in rules

    def test_truncated_window_tolerated_when_opted_out(self):
        records = [
            record for record in traced_system().tracer.records
            if record.kind not in (events.COMPLETE, events.FAILED, events.LEDGER)
        ]
        assert check(records, require_complete=False) == []

    def test_fault_alternation_enforced(self):
        down = TraceRecord(1.0, events.FAULT_DOWN, "site:1", {})
        up = TraceRecord(2.0, events.FAULT_UP, "site:1", {})
        assert check([down, up]) == []
        again = TraceRecord(3.0, events.FAULT_DOWN, "site:1", {})
        assert "fault-alternation" in rules_of(
            check([down, down, up, again])
        )

    def test_tolerance_validation(self):
        with pytest.raises(SimulationError):
            TraceChecker(tolerance=-1.0)


class TestDropsDowngrade:
    """Capacity-bounded traces: prefix-sensitive rules are downgraded.

    Drop-oldest eviction removes the *front* of the trace, so rules that
    reason about earlier events (a ``leg.granted`` whose ``leg.start``
    fell off, an ``alert.close`` whose open is gone) fire spuriously on
    the retained suffix.  With the tracer's drop counter passed through,
    those rules are suppressed; everything suffix-anchored still gates.
    """

    def test_truncated_prefix_fires_leg_order_without_drop_count(self):
        # Regression: before drop-awareness, auditing a bounded tracer's
        # retained window reported leg-order on a perfectly healthy run.
        records = traced_system().tracer.records
        granted = next(
            index for index, record in enumerate(records)
            if record.kind == events.LEG_GRANTED
        )
        truncated = records[granted:]
        assert "leg-order" in rules_of(check(truncated))

    def test_drop_count_downgrades_prefix_sensitive_rules(self):
        records = traced_system().tracer.records
        granted = next(
            index for index, record in enumerate(records)
            if record.kind == events.LEG_GRANTED
        )
        truncated = records[granted:]
        assert check(truncated, dropped=granted) == []
        TraceChecker().assert_clean(truncated, dropped=granted)  # must not raise

    def test_check_system_passes_the_tracer_drop_counter(self):
        # Re-emit a clean run through a capacity-bounded tracer: the
        # retained window loses the first legs, but check_system reads
        # tracer.dropped and stays clean.
        records = traced_system().tracer.records
        granted = next(
            index for index, record in enumerate(records)
            if record.kind == events.LEG_GRANTED
        )
        clock = [0.0]
        bounded = Tracer(lambda: clock[0], capacity=len(records) - granted)
        for record in records:
            clock[0] = record.time
            bounded.emit(record.kind, record.subject, **record.detail)
        assert bounded.dropped == granted
        system = SimpleNamespace(tracer=bounded)
        assert TraceChecker().check_system(system) == []
        # Without the drop counter the same window is (spuriously) dirty.
        assert "leg-order" in rules_of(check(bounded.records))

    def test_drops_do_not_excuse_suffix_anchored_rules(self):
        # Tampering the retained window must still be caught: the ledger
        # identity rules are not prefix-sensitive.
        records = traced_system().tracer.records
        for record in records:
            if record.kind == events.LEDGER:
                record.detail["reported_iv"] = record.detail["reported_iv"] + 0.1
        rules = rules_of(check(records, dropped=5))
        assert "iv-recompute" in rules
        assert not rules & PREFIX_SENSITIVE_RULES


def alert_record(time, kind, subject="slo:r", **overrides):
    detail = {
        "rule": "r", "metric": "m", "value": 1.0,
        "threshold": 0.5, "clear": 0.4,
    }
    detail.update(overrides)
    return TraceRecord(time, kind, subject, detail)


class TestAlertRules:
    """alert-alternation / alert-well-formed / alert-window invariants."""

    # A non-alert record pinning the trace span start.
    base = TraceRecord(0.0, events.MQO_WINDOW, "window:0", {"index": 0})

    def test_open_close_pair_is_clean(self):
        records = [
            self.base,
            alert_record(1.0, events.ALERT_OPEN, since=0.5),
            alert_record(2.0, events.ALERT_CLOSE, opened_at=1.0),
        ]
        assert check(records) == []

    def test_double_open_caught(self):
        records = [
            self.base,
            alert_record(1.0, events.ALERT_OPEN, since=0.5),
            alert_record(2.0, events.ALERT_OPEN, since=0.5),
        ]
        assert "alert-alternation" in rules_of(check(records))

    def test_close_without_open_caught_then_excused_by_drops(self):
        records = [
            self.base,
            alert_record(2.0, events.ALERT_CLOSE, opened_at=1.0),
        ]
        assert "alert-alternation" in rules_of(check(records))
        # The open may simply have been evicted from a bounded tracer.
        assert check(records, dropped=1) == []

    def test_open_since_outside_trace_span_caught(self):
        records = [
            self.base,
            alert_record(1.0, events.ALERT_OPEN, since=-5.0),
            alert_record(2.0, events.ALERT_CLOSE, opened_at=1.0),
        ]
        assert "alert-window" in rules_of(check(records))

    def test_close_opened_at_mismatch_caught(self):
        records = [
            self.base,
            alert_record(1.0, events.ALERT_OPEN, since=0.5),
            alert_record(2.0, events.ALERT_CLOSE, opened_at=0.25),
        ]
        assert "alert-window" in rules_of(check(records))

    def test_open_still_dangling_at_end_of_trace_caught(self):
        # Regression: a run that stopped mid-breach used to pass the
        # audit with its last alert.open unmatched.  The close must exist
        # (SLOMonitor.finalize emits it at shutdown).
        records = [
            self.base,
            alert_record(1.0, events.ALERT_OPEN, since=0.5),
        ]
        violations = check(records)
        assert "alert-alternation" in rules_of(violations)
        assert any("still open" in v.message for v in violations)
        # With the close appended (what finalize produces) the pair is clean.
        records.append(
            alert_record(2.0, events.ALERT_CLOSE, opened_at=1.0, final=True)
        )
        assert check(records) == []
        # A bounded tracer that evicted records downgrades the rule, like
        # every other prefix-sensitive alternation failure.
        assert check(records[:2], dropped=1) == []

    def test_alert_missing_detail_keys_caught(self):
        record = TraceRecord(1.0, events.ALERT_OPEN, "slo:r", {"rule": "r"})
        assert "alert-well-formed" in rules_of(
            check([self.base, record])
        )


class TestSLOCoverage:
    """check_slo replays the rules and audits the emitted alerts."""

    @pytest.fixture(scope="class")
    def live_run(self):
        from repro.experiments.live import run_live

        return run_live()

    def test_live_run_alerts_and_passes_both_audits(self, live_run):
        checker = TraceChecker()
        assert checker.check_system(live_run.system) == []
        records = live_run.system.tracer.records
        assert any(r.kind == events.ALERT_OPEN for r in records)
        assert checker.check_slo(
            records, live_run.monitor.rules,
            window=live_run.registry.window,
            half_life=live_run.registry.half_life,
        ) == []

    def test_suppressed_alert_caught_as_coverage_gap(self, live_run):
        records = live_run.system.tracer.records
        first_open = next(
            r for r in records if r.kind == events.ALERT_OPEN
        )
        tampered = [r for r in records if r is not first_open]
        violations = TraceChecker().check_slo(
            tampered, live_run.monitor.rules,
            window=live_run.registry.window,
            half_life=live_run.registry.half_life,
        )
        assert "slo-coverage" in rules_of(violations)

    def test_fabricated_alert_caught_as_coverage_gap(self, live_run):
        records = list(live_run.system.tracer.records)
        rule_name = live_run.monitor.rules[0].name
        records.append(alert_record(
            records[-1].time + 1.0, events.ALERT_OPEN,
            subject=f"slo:{rule_name}", rule=rule_name, since=records[-1].time,
        ))
        violations = TraceChecker().check_slo(
            records, live_run.monitor.rules,
            window=live_run.registry.window,
            half_life=live_run.registry.half_life,
        )
        assert "slo-coverage" in rules_of(violations)


class TestLedgerEntryAgainstOutcomes:
    def test_ledger_mirrors_outcomes_exactly(self):
        system = traced_system(num_queries=3)
        assert len(system.ledger) == len(system.outcomes)
        by_qid = {entry.query_id: entry for entry in system.ledger}
        for outcome in system.outcomes:
            entry = by_qid[outcome.query.query_id]
            assert isinstance(entry, IVLedgerEntry)
            assert entry.reported_iv == outcome.information_value
            assert entry.recompute_iv() == outcome.information_value
            assert entry.computational_latency == outcome.computational_latency
            assert (
                entry.synchronization_latency == outcome.synchronization_latency
            )
