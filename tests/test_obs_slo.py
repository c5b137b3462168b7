"""Unit tests: SLO rules, hysteresis, the monitor and alert replay."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from repro.errors import SimulationError
from repro.obs import events
from repro.obs.live import LiveRegistry
from repro.obs.slo import (
    SLOMonitor,
    SLORule,
    default_slo_rules,
    load_slo_rules,
)
from repro.sim.trace import Tracer

from tests.test_obs_live import live_steps


def open_alerts(monitor: SLOMonitor) -> list:
    """The monitor's currently breaching alerts."""
    return [alert for alert in monitor.alerts if alert.open]


def snap(section: str, metric: str, value: float) -> dict:
    return {section: {metric: value}}


class TestSLORule:
    def test_breach_and_clear_above(self):
        rule = SLORule("r", "gauges.x", "above", threshold=10.0, clear=5.0)
        assert rule.breached(11.0) and not rule.breached(10.0)
        assert rule.cleared(5.0) and not rule.cleared(6.0)
        assert rule.clear_threshold == 5.0

    def test_breach_and_clear_below(self):
        rule = SLORule("r", "gauges.x", "below", threshold=0.7, clear=0.85)
        assert rule.breached(0.6) and not rule.breached(0.7)
        assert rule.cleared(0.85) and not rule.cleared(0.8)

    def test_clear_defaults_to_threshold(self):
        rule = SLORule("r", "gauges.x", "above", threshold=3.0)
        assert rule.clear_threshold == 3.0
        assert rule.cleared(3.0) and not rule.cleared(3.5)

    def test_read_resolves_dotted_snapshot_path(self):
        rule = SLORule("r", "quantiles.query.sl.p95", "above", threshold=1.0)
        snapshot = {"quantiles": {"query.sl.p95": 4.5}}
        assert rule.read(snapshot) == 4.5
        assert rule.read({"quantiles": {}}) is None
        assert rule.read({}) is None

    def test_validation_errors(self):
        with pytest.raises(SimulationError):
            SLORule("r", "gauges.x", "between", threshold=1.0)
        with pytest.raises(SimulationError):
            SLORule("r", "flat-path", "above", threshold=1.0)
        with pytest.raises(SimulationError):
            SLORule("r", "gauges.x", "above", threshold=1.0, min_dwell=-1.0)
        # clear on the wrong side of threshold for the comparison.
        with pytest.raises(SimulationError):
            SLORule("r", "gauges.x", "above", threshold=1.0, clear=2.0)
        with pytest.raises(SimulationError):
            SLORule("r", "gauges.x", "below", threshold=1.0, clear=0.5)

    def test_dict_round_trip(self):
        rule = SLORule(
            "r", "gauges.x", "above", threshold=2.0, clear=1.0, min_dwell=3.0
        )
        assert SLORule.from_dict(rule.to_dict()) == rule
        bare = SLORule("s", "rates.y", "below", threshold=0.5)
        assert SLORule.from_dict(bare.to_dict()) == bare

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(SimulationError):
            SLORule.from_dict({"name": "r"})


class TestLoadRules:
    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "slo.json"
        rules = [rule.to_dict() for rule in default_slo_rules()]
        path.write_text(json.dumps(rules))
        loaded = load_slo_rules(str(path))
        assert loaded == default_slo_rules()

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"name": "r"}))
        with pytest.raises(SimulationError):
            load_slo_rules(str(path))

    def test_default_rules_have_unique_names_and_hysteresis(self):
        rules = default_slo_rules()
        names = [rule.name for rule in rules]
        assert len(set(names)) == len(names)
        assert all(rule.clear is not None for rule in rules)


class TestSLOMonitorEvaluate:
    def make(self, **rule_kwargs):
        rule = SLORule("r", "gauges.x", "above", threshold=10.0, **rule_kwargs)
        registry = LiveRegistry()
        return rule, SLOMonitor([rule], registry)

    def test_open_then_close_with_hysteresis(self):
        _rule, monitor = self.make(clear=5.0)
        monitor.evaluate(snap("gauges", "x", 12.0), 1.0)
        assert len(open_alerts(monitor)) == 1
        # Back under threshold but above the clear line: still open.
        monitor.evaluate(snap("gauges", "x", 7.0), 2.0)
        assert len(open_alerts(monitor)) == 1
        monitor.evaluate(snap("gauges", "x", 4.0), 3.0)
        assert open_alerts(monitor) == []
        alert = monitor.alerts[0]
        assert alert.opened_at == 1.0 and alert.closed_at == 3.0
        assert alert.value == 12.0 and alert.close_value == 4.0

    def test_min_dwell_suppresses_single_sample_flaps(self):
        _rule, monitor = self.make(min_dwell=2.0)
        monitor.evaluate(snap("gauges", "x", 12.0), 1.0)
        assert monitor.alerts == []          # breached, dwelling
        monitor.evaluate(snap("gauges", "x", 12.0), 2.0)
        assert monitor.alerts == []          # only 1.0 minute in breach
        monitor.evaluate(snap("gauges", "x", 12.0), 3.5)
        assert len(monitor.alerts) == 1      # sustained past the dwell
        assert monitor.alerts[0].opened_at == 3.5

    def test_dwell_resets_when_breach_clears_early(self):
        _rule, monitor = self.make(min_dwell=2.0)
        monitor.evaluate(snap("gauges", "x", 12.0), 1.0)
        monitor.evaluate(snap("gauges", "x", 1.0), 2.0)   # flap resets dwell
        monitor.evaluate(snap("gauges", "x", 12.0), 3.0)
        assert monitor.alerts == []
        monitor.evaluate(snap("gauges", "x", 12.0), 5.0)
        assert len(monitor.alerts) == 1

    def test_missing_metric_is_skipped(self):
        _rule, monitor = self.make()
        monitor.evaluate({"gauges": {}}, 1.0)
        monitor.evaluate({}, 2.0)
        assert monitor.alerts == []

    def test_duplicate_rule_names_rejected(self):
        rule = SLORule("r", "gauges.x", "above", threshold=1.0)
        with pytest.raises(SimulationError):
            SLOMonitor([rule, rule], LiveRegistry())


class TestSLOMonitorAttached:
    def make_attached(self, rules):
        clock = [0.0]
        tracer = Tracer(lambda: clock[0])
        registry = LiveRegistry().attach(tracer)
        monitor = SLOMonitor(rules, registry).attach(tracer)
        return clock, tracer, monitor

    def test_emits_audited_alert_events_on_the_tracer(self):
        rule = SLORule(
            "dwell", "gauges.faults.outage_dwell", "above",
            threshold=5.0, clear=0.0,
        )
        clock, tracer, monitor = self.make_attached([rule])
        tracer.emit(events.FAULT_DOWN, "site:1")
        clock[0] = 7.0
        tracer.emit(events.SYNC_APPLY, "a", gap=0.5)   # dwell now 7 > 5
        clock[0] = 8.0
        tracer.emit(events.FAULT_UP, "site:1")         # dwell back to 0
        kinds = [record.kind for record in tracer.records]
        assert events.ALERT_OPEN in kinds and events.ALERT_CLOSE in kinds
        open_record = next(
            record for record in tracer.records
            if record.kind == events.ALERT_OPEN
        )
        assert open_record.subject == "slo:dwell"
        assert open_record.detail["rule"] == "dwell"
        assert open_record.detail["threshold"] == 5.0
        # The alert event lands *after* the record that triggered it.
        trigger = kinds.index(events.SYNC_APPLY)
        assert kinds.index(events.ALERT_OPEN) == trigger + 1
        assert len(monitor.alerts) == 1 and not monitor.alerts[0].open

    def test_monitor_ignores_its_own_alert_events(self):
        # Alert events must not recurse into evaluation: opening an alert
        # emits a record, which the subscription sees, which must not
        # re-evaluate (and re-open).
        rule = SLORule(
            "dwell", "gauges.faults.outage_dwell", "above", threshold=5.0
        )
        clock, tracer, monitor = self.make_attached([rule])
        tracer.emit(events.FAULT_DOWN, "site:1")
        clock[0] = 9.0
        tracer.emit(events.SYNC_APPLY, "a", gap=0.5)
        opens = [
            record for record in tracer.records
            if record.kind == events.ALERT_OPEN
        ]
        assert len(opens) == 1


class TestFinalize:
    """Regression: a run ending mid-breach left its alert dangling open.

    The trace then failed the checker's alert-alternation audit (an
    ``alert.open`` with no close) and the dashboard showed a breach that
    outlived the data.  ``finalize`` closes every open alert with an
    audited, ``final=True`` close.
    """

    def make_breaching_monitor(self):
        rule = SLORule("r", "gauges.x", "above", threshold=10.0)
        monitor = SLOMonitor([rule], LiveRegistry())
        monitor.evaluate(snap("gauges", "x", 12.0), 1.0)
        assert len(open_alerts(monitor)) == 1
        return monitor

    def test_finalize_closes_open_alerts_with_last_value(self):
        monitor = self.make_breaching_monitor()
        monitor.evaluate(snap("gauges", "x", 15.0), 2.0)  # still breaching
        closed = monitor.finalize(3.0)
        assert len(closed) == 1 and open_alerts(monitor) == []
        alert = closed[0]
        assert alert.closed_at == 3.0
        assert alert.close_value == 15.0  # last observed, not the opener

    def test_finalize_is_idempotent(self):
        monitor = self.make_breaching_monitor()
        assert len(monitor.finalize(2.0)) == 1
        assert monitor.finalize(3.0) == []
        assert len(monitor.alerts) == 1

    def test_finalize_without_open_alerts_is_a_no_op(self):
        rule = SLORule("r", "gauges.x", "above", threshold=10.0)
        monitor = SLOMonitor([rule], LiveRegistry())
        assert monitor.finalize(1.0) == []

    def test_dangling_alert_fails_the_checker_until_finalized(self):
        # The pre-fix failure mode, end to end on a traced monitor: the
        # trace with a dangling open fails alert-alternation; finalize
        # emits the audited close and the same trace passes.
        from repro.obs.checker import TraceChecker

        rule = SLORule(
            "dwell", "gauges.faults.outage_dwell", "above",
            threshold=5.0, clear=0.0,
        )
        clock = [0.0]
        tracer = Tracer(lambda: clock[0])
        registry = LiveRegistry().attach(tracer)
        monitor = SLOMonitor([rule], registry).attach(tracer)
        tracer.emit(events.FAULT_DOWN, "site:1")
        clock[0] = 7.0
        tracer.emit(events.SYNC_APPLY, "a", gap=0.5)  # dwell 7 > 5: opens
        assert len(open_alerts(monitor)) == 1

        violations = TraceChecker().check(tracer.records)
        assert any(
            v.rule == "alert-alternation" and "still open" in v.message
            for v in violations
        )

        clock[0] = 8.0
        monitor.finalize(8.0)
        assert TraceChecker().check(tracer.records) == []
        close = next(
            record for record in tracer.records
            if record.kind == events.ALERT_CLOSE
        )
        assert close.detail["final"] is True
        assert close.detail["opened_at"] == 7.0

    def test_run_live_leaves_no_dangling_alerts(self):
        # run_live finalizes at shutdown; every alert it reports is closed
        # and the emitted trace passes the alternation audit.
        from repro.experiments.live import run_live
        from repro.obs.checker import TraceChecker

        result = run_live()
        assert all(not alert.open for alert in result.alerts)
        records = result.system.tracer.records
        assert not any(
            violation.rule == "alert-alternation"
            for violation in TraceChecker().check(
                records, dropped=result.system.tracer.dropped
            )
        )


class TestReplay:
    def make_traced_alert_run(self):
        rule = SLORule(
            "dwell", "gauges.faults.outage_dwell", "above",
            threshold=5.0, clear=0.0,
        )
        clock = [0.0]
        tracer = Tracer(lambda: clock[0])
        registry = LiveRegistry().attach(tracer)
        SLOMonitor([rule], registry).attach(tracer)
        tracer.emit(events.FAULT_DOWN, "site:1")
        for time in (3.0, 7.0, 9.0):
            clock[0] = time
            tracer.emit(events.SYNC_APPLY, "a", gap=0.5)
        clock[0] = 10.0
        tracer.emit(events.FAULT_UP, "site:1")
        return rule, tracer

    def test_replay_re_derives_the_emitted_alerts(self):
        rule, tracer = self.make_traced_alert_run()
        emitted = [
            record for record in tracer.records
            if record.kind in events.ALERT_KINDS
        ]
        replayed = SLOMonitor.replay(tracer.records, [rule]).alerts
        assert len(replayed) == len(emitted) // 2 + len(emitted) % 2
        assert [alert.opened_at for alert in replayed] == [
            record.time for record in emitted
            if record.kind == events.ALERT_OPEN
        ]

    def test_replay_is_deterministic(self):
        rule, tracer = self.make_traced_alert_run()
        first = SLOMonitor.replay(tracer.records, [rule]).alerts
        second = SLOMonitor.replay(tracer.records, [rule]).alerts
        assert [(a.rule, a.opened_at, a.closed_at) for a in first] == [
            (a.rule, a.opened_at, a.closed_at) for a in second
        ]

    def test_replay_ignores_alert_events_in_the_input(self):
        # Feeding the trace *with* its alert events must not change the
        # derivation (they are the monitor's own output, not its input).
        rule, tracer = self.make_traced_alert_run()
        stripped = [
            record for record in tracer.records
            if record.kind not in events.ALERT_KINDS
        ]
        with_alerts = SLOMonitor.replay(tracer.records, [rule]).alerts
        without = SLOMonitor.replay(stripped, [rule]).alerts
        assert [(a.rule, a.opened_at) for a in with_alerts] == [
            (a.rule, a.opened_at) for a in without
        ]


#: Rules over every section ``LiveRegistry.read`` serves, rates included
#: (reading a rate decays it), one with a dwell and one that never
#: resolves.
READ_RULES = [
    SLORule("in-flight", "gauges.query.in_flight", "above", 1.0, clear=0.0),
    SLORule("arrivals", "rates.query.arrivals.ewma", "above", 0.2, clear=0.1),
    SLORule("cl-p50", "quantiles.query.cl.p50", "above", 2.0, clear=1.0,
            min_dwell=0.5),
    SLORule("windows", "counters.mqo.windows", "above", 2.0),
    SLORule("unknown", "gauges.no.such", "above", 0.0),
    *default_slo_rules(),
]


def live_and_snapshot_runs(steps) -> tuple[Tracer, SLOMonitor, Tracer, SLOMonitor]:
    """The same records through an attached monitor, which reads only its
    rules' metrics, and through one fed a full snapshot per record."""
    clock = [0.0]
    live_tracer = Tracer(lambda: clock[0])
    live = SLOMonitor(
        READ_RULES, LiveRegistry(qos_max_staleness=10.0).attach(live_tracer)
    ).attach(live_tracer)
    snap_tracer = Tracer(lambda: clock[0])
    registry = LiveRegistry(qos_max_staleness=10.0).attach(snap_tracer)
    snapped = SLOMonitor(READ_RULES, registry, tracer=snap_tracer)

    def evaluate(record) -> None:
        if record.kind not in events.ALERT_KINDS:
            snapped.evaluate(registry.snapshot(record.time), record.time)

    snap_tracer.subscribe(evaluate)
    for time, kind, subject, detail, _query in steps:
        clock[0] = time
        live_tracer.emit(kind, subject, **detail)
        snap_tracer.emit(kind, subject, **detail)
    return live_tracer, live, snap_tracer, snapped


class TestAttachedMonitorReadsLikeSnapshots:
    @given(live_steps())
    def test_same_alerts_as_evaluating_full_snapshots(self, steps):
        live_tracer, live, snap_tracer, snapped = live_and_snapshot_runs(steps)
        assert live.alerts == snapped.alerts
        assert live_tracer.records == snap_tracer.records

    def test_a_breaching_stream_alerts_alike(self):
        steps = [
            (0.0, events.SUBMIT, "q", {"qid": qid}, None) for qid in range(3)
        ] + [
            (4.0 + qid, events.COMPLETE, "q", {"qid": qid, "iv": 0.5}, None)
            for qid in range(3)
        ] + [(9.0, events.MQO_WINDOW, "window", {}, None)] * 3
        live_tracer, live, snap_tracer, snapped = live_and_snapshot_runs(steps)
        assert {alert.rule for alert in live.alerts} == {
            "in-flight", "arrivals", "windows",
        }
        assert live.alerts == snapped.alerts
        assert live_tracer.records == snap_tracer.records

    def test_replay_reads_like_the_live_monitor(self):
        live_tracer, live, _snap_tracer, _snapped = live_and_snapshot_runs([
            (float(time), events.SUBMIT, "q", {"qid": time}, None)
            for time in range(4)
        ])
        replayed = SLOMonitor.replay(
            live_tracer.records, READ_RULES, qos_max_staleness=10.0
        )
        assert replayed.alerts == live.alerts and live.alerts
