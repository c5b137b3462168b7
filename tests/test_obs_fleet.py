"""Fleet telemetry tests: the collector merge, cross-shard rules.

Covers the full shard-to-fleet path: the collector's stable global merge
and chrome-trace export, each cross-shard checker rule firing on
constructed bad input (and agreeing with the batch oracle in
``tests/checker_oracle.py``), and a small end-to-end sharded run that
must be checker-clean, bit-exact in its IV conservation, and — with
telemetry off — identical to the untraced sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.obs.checker import TraceChecker
from repro.obs.fleet import (
    FLEET_PID_BASE,
    FleetCollector,
    ShardTelemetry,
)
from repro.core.value import DiscountRates
from repro.obs.ledger import completion_ledger
from repro.obs.live import TableSyncState
from repro.sim.trace import TraceRecord

from tests.checker_oracle import TraceChecker as OracleChecker
from tests.checker_oracle import sorted_violations


def audited(shard: int, records: list, summary: dict | None = None):
    """A shard's telemetry as a traced shard ships it: its records and the
    audit of a checker fold fed them in emit order."""
    fold = TraceChecker()
    for record in records:
        fold.observe(record)
    return ShardTelemetry(
        shard=shard, records=records, summary=summary or {},
        audit=fold.audit(),
    )


def ledger_detail(qid: int, submitted: float, completed: float) -> dict:
    entry = completion_ledger(
        f"q{qid}", qid, business_value=1.0,
        rates=DiscountRates(0.02, 0.02),
        submitted_at=submitted, begin=submitted, completed_at=completed,
        data_timestamp=submitted,
    )
    return entry.to_dict()


def shard_records(qid: int, base: float) -> list[TraceRecord]:
    """A minimal checker-clean lifecycle for one query, as a shard emits it."""
    detail = ledger_detail(qid, submitted=base, completed=base + 1.0)
    iv = detail["reported_iv"]
    return [
        TraceRecord(base, "submit", f"q{qid}", {"qid": qid}),
        TraceRecord(base, "plan", f"q{qid}", {"qid": qid, "est_iv": 1.0}),
        TraceRecord(base, "exec.start", f"q{qid}", {"qid": qid, "begin": base}),
        TraceRecord(base + 1.0, "complete", f"q{qid}",
                    {"qid": qid, "iv": iv, "cl": 1.0, "sl": 1.0}),
        TraceRecord(base + 1.0, "ledger", f"q{qid}", detail),
    ]


def telemetry_of(shard: int, qid: int, base: float) -> ShardTelemetry:
    records = shard_records(qid, base)
    ledger = [r for r in records if r.kind == "ledger"][0].detail
    return audited(shard, records, {
        "total_iv": ledger["reported_iv"],
        "dropped_events": 0,
    })


def tagged_trace(collector: FleetCollector) -> list[TraceRecord]:
    """The merged fleet trace with each record's detail tagged ``shard=k``:
    the view the fleet trace goldens hash (the collector keeps no copy)."""
    return [
        TraceRecord(
            record.time, record.kind, record.subject,
            {**record.detail, "shard": shard},
        )
        for shard, record in collector._merged()
    ]


class TestFleetCollector:
    def test_merge_is_globally_time_ordered_and_tie_stable(self):
        # Shard 1's records interleave with shard 0's; equal timestamps
        # must keep shard-index order.
        a = telemetry_of(0, qid=0, base=1.0)
        b = telemetry_of(1, qid=1, base=1.0)
        collector = FleetCollector([b, a])  # construction order irrelevant
        merged = tagged_trace(collector)
        times = [record.time for record in merged]
        assert times == sorted(times)
        first_at_1 = [r.detail["shard"] for r in merged if r.time == 1.0]
        assert first_at_1 == sorted(first_at_1)

    def test_duplicate_shard_indices_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            FleetCollector([telemetry_of(0, 0, 1.0), telemetry_of(0, 1, 2.0)])

    def test_empty_fleet_rejected(self):
        with pytest.raises(SimulationError):
            FleetCollector([])

    def test_snapshot_totals_are_left_to_right_sums(self):
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        snapshot = collector.snapshot()
        fleet = snapshot["fleet"]
        panels = snapshot["shards"]
        assert fleet["ledger_iv"] == panels[0]["ledger_iv"] + panels[1]["ledger_iv"]
        assert fleet["total_iv"] == panels[0]["ledger_iv"] + panels[1]["ledger_iv"]
        assert fleet["records"] == sum(p["records"] for p in panels)

    def test_chrome_trace_uses_one_pid_per_shard_and_parses_ledgers(self):
        # The exporter's LEDGER handling goes through the *strict*
        # IVLedgerEntry.from_dict — the shard tag must not leak into it.
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        trace = collector.chrome_trace()
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert pids == {FLEET_PID_BASE, FLEET_PID_BASE + 1}
        payload = json.dumps(trace)  # must be JSON-serializable end to end
        assert "shard 1" in payload

    def test_clean_constructed_fleet_passes_check(self):
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        assert collector.check() == []


def rules_of(violations) -> set[str]:
    return {violation.rule for violation in violations}


def check_fleet(collector: FleetCollector, snapshot: dict | None = None):
    """The fleet verdict from the shards' audits, asserted equal (sorted)
    to the oracle's, which re-reads every shard's records."""
    snapshot = collector.snapshot() if snapshot is None else snapshot
    found = TraceChecker().check_fleet(collector.shards, snapshot)
    assert sorted_violations(found) == sorted_violations(
        OracleChecker().check_fleet(collector.shards, snapshot)
    )
    return found


class TestCrossShardRules:
    def test_query_owned_by_two_shards_flagged(self):
        a = telemetry_of(0, qid=7, base=1.0)
        b = telemetry_of(1, qid=7, base=2.0)  # same qid on both shards
        collector = FleetCollector([a, b])
        violations = check_fleet(collector)
        assert "shard-ownership" in rules_of(violations)

    def test_missing_dropped_counter_flagged(self):
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        snapshot = collector.snapshot()
        snapshot["shards"] = snapshot["shards"][:1]  # drop shard 1's panel
        violations = check_fleet(collector, snapshot)
        assert "fleet-dropped-surfaced" in rules_of(violations)

    def test_tampered_iv_sum_flagged_bit_exactly(self):
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        snapshot = collector.snapshot()
        # One ulp of drift must be enough to fire the conservation rule.
        snapshot["fleet"]["ledger_iv"] += 1e-12
        violations = check_fleet(collector, snapshot)
        assert "fleet-iv-conservation" in rules_of(violations)

    def test_tampered_cl_sum_flagged(self):
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        snapshot = collector.snapshot()
        snapshot["shards"][0]["ledger_cl"] *= 2.0
        violations = check_fleet(collector, snapshot)
        assert "fleet-cl-conservation" in rules_of(violations)


    @staticmethod
    def grant_without_start(telemetry: ShardTelemetry) -> ShardTelemetry:
        """The shard with a ``leg-order`` fault (prefix-sensitive) planted."""
        records = list(telemetry.records)
        start = records[2]  # exec.start
        records.insert(3, TraceRecord(
            start.time, "leg.granted", start.subject,
            {"qid": start.detail["qid"], "site": 0},
        ))
        return audited(telemetry.shard, records, telemetry.summary)

    def test_per_shard_violation_names_its_shard(self):
        collector = FleetCollector([
            telemetry_of(0, 0, 1.0),
            self.grant_without_start(telemetry_of(1, 1, 2.0)),
        ])
        assert collector.check() == check_fleet(collector)
        assert [
            (violation.rule, violation.subject)
            for violation in collector.check()
        ] == [("leg-order", "shard1:q1")]

    def test_dropped_events_downgrade_only_their_own_shard(self):
        lossy = self.grant_without_start(telemetry_of(0, 0, 1.0))
        lossy.summary["dropped_events"] = 1
        collector = FleetCollector([
            lossy, self.grant_without_start(telemetry_of(1, 1, 2.0)),
        ])
        assert collector.check() == check_fleet(collector)
        assert [
            (violation.rule, violation.subject)
            for violation in collector.check()
        ] == [("leg-order", "shard1:q1")]

    def test_check_constructs_no_trace_record(self, monkeypatch):
        # The audit reads each shard's audit, never its records: no tagged
        # copy of the merged trace, no stripped copy of that, and no read
        # of a record list by check() or snapshot().
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        built = []
        init = TraceRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        reads = []

        class Watched(list):
            def __iter__(self):
                reads.append("iter")
                return super().__iter__()

            def __getitem__(self, index):
                reads.append("getitem")
                return super().__getitem__(index)

            def __len__(self):
                reads.append("len")
                return super().__len__()

        for telemetry in collector.shards:
            telemetry.records = Watched(telemetry.records)
        monkeypatch.setattr(TraceRecord, "__init__", counting_init)
        assert collector.check() == []
        assert collector.snapshot()["fleet"]["records"] == 10
        assert built == []
        assert reads == []
        # The watch itself works: the chrome export does read the records.
        collector.chrome_trace()
        assert reads


class TestShardedSweepEndToEnd:
    """The real EXT5 path: run_schedule with telemetry on, serial shards."""

    def run_traced(self, on_fleet=None, executor="serial"):
        from repro.experiments.scale import ScaleConfig, ScheduleSpec, run_schedule

        spec = ScheduleSpec("steady", queries=160, arrival="poisson",
                            interarrival=1.0)
        config = ScaleConfig(
            shards=2, executor=executor, schedules=(spec,),
            trace=True, fleet_metrics=True,
        )
        return run_schedule(config, spec, on_fleet=on_fleet)

    def test_process_executor_reports_the_serial_verdict(self):
        # Each spawned worker folds its own trace; the audits come back
        # pickled with the records and must tell the executors apart in
        # nothing, and agree with the oracle's re-read of the records.
        reports = {}
        for executor in ("serial", "process"):
            def on_fleet(_name, collector, violations, executor=executor):
                reports[executor] = (collector.snapshot(), violations)
                assert violations == check_fleet(collector)

            self.run_traced(on_fleet, executor=executor)
        assert reports["process"] == reports["serial"]
        assert reports["serial"][1] == []

    def test_traced_run_is_checker_clean_and_bit_exact(self):
        captured = {}

        def on_fleet(name, collector, violations):
            captured["collector"] = collector
            captured["violations"] = violations

        metrics = self.run_traced(on_fleet)
        assert captured["violations"] == []
        fleet = metrics["fleet"]
        assert fleet["violations"] == 0
        assert fleet["dropped_events"] == 0
        assert fleet["ledger_entries"] == 160
        # Conservation, bit-for-bit: the merged ledger's fleet IV equals
        # the scheduler's online total, which equals the shard-order sum.
        shard_ivs = [
            value for key, value in metrics["total_iv"].items()
            if key != "online"
        ]
        total = 0.0
        for value in shard_ivs:
            total += value
        assert metrics["total_iv"]["online"] == total
        assert fleet["total_iv"] == metrics["total_iv"]["online"]
        # The fleet registry agrees with the scheduler's own counts.
        registry = captured["collector"].registry
        assert registry.counters["ledger.entries"] == 160.0
        assert registry.counters["query.completed"] == 160.0

    def test_telemetry_changes_no_scheduling_decision(self):
        from repro.experiments.scale import ScaleConfig, ScheduleSpec, run_schedule

        spec = ScheduleSpec("steady", queries=160, arrival="poisson",
                            interarrival=1.0)
        base = ScaleConfig(shards=2, executor="serial", schedules=(spec,))
        plain = run_schedule(base, spec)
        traced = self.run_traced()
        for key in ("queries", "dispatched", "shed", "deferred", "windows",
                    "ga_runs", "total_iv"):
            assert traced[key] == plain[key], key
        assert "fleet" not in plain

    def test_no_registry_is_folded_unless_read(self, monkeypatch):
        # Shards return their records only; the fleet registry is folded
        # in the parent, and only for a caller that reads it.
        from repro.obs.live import LiveRegistry

        observed = []
        fold = LiveRegistry.observe

        def counting_observe(self, record):
            observed.append(record)
            fold(self, record)

        monkeypatch.setattr(LiveRegistry, "observe", counting_observe)
        collectors = []
        metrics = self.run_traced(
            lambda name, collector, violations: collectors.append(collector)
        )
        assert observed == []
        collectors[0].registry
        assert len(observed) == metrics["fleet"]["records"]

    def test_documented_two_thousand_query_steady_trace(self):
        # EXPERIMENTS' fleet section: 13,618 records + 2,000 ledger entries
        # across two shards, clean and bit-exact.
        from dataclasses import replace

        from repro.experiments.scale import (
            DEFAULT_SCHEDULES,
            ScaleConfig,
            run_schedule,
        )

        spec = replace(DEFAULT_SCHEDULES[0], queries=2_000)
        metrics = run_schedule(
            ScaleConfig(executor="serial", schedules=(spec,), trace=True), spec
        )
        fleet = metrics["fleet"]
        assert (fleet["records"], fleet["ledger_entries"]) == (13_618, 2_000)
        assert (fleet["violations"], fleet["dropped_events"]) == (0, 0)
        assert metrics["shards"] == 2
        assert fleet["total_iv"] == metrics["total_iv"]["online"]


#: sha256 of the canonical JSON of what a fleet collection reports for the
#: golden configs of ``tests/test_mqo_scale.py`` (serial, two shards,
#: ``trace`` + ``fleet_metrics``): the fleet registry's counters, every
#: histogram's ``counts`` / ``count`` / ``min`` / ``max``, the snapshot's
#: ``fleet`` totals and each shard panel (minus the per-shard gauges the
#: panels carried then).  Captured while shards still shipped registry
#: state and the collector merged it; unchanged by the fold that replaced
#: the merge.
GOLDEN_FLEET_REGISTRY = {
    "burst": "ec28cf5d7c125e4756d90a0d51070574"
             "edc10c970b5af16186ba84e7c78867e8",
    "pressure": "3a8e33c251922e8b9a287dd1a5bd2c59"
                "e50462873c7d8bd8ee180d32b478a65a",
    "steady": "939f9e6c395e6fbe95cebc8a6df8ad8a"
              "0a7919e371359c624afe6f84c2630178",
}


def fleet_registry_digest(collector) -> str:
    import hashlib

    registry = collector.registry.snapshot()
    snapshot = collector.snapshot()
    pinned = {
        "counters": registry["counters"],
        "histograms": {
            name: {key: data[key] for key in ("counts", "count", "min", "max")}
            for name, data in registry["histograms"].items()
        },
        "fleet": snapshot["fleet"],
        "shards": [
            {key: value for key, value in panel.items() if key != "gauges"}
            for panel in snapshot["shards"]
        ],
    }
    canonical = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestFleetRegistryPin:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FLEET_REGISTRY))
    def test_fleet_registry_and_snapshot_are_pinned(self, name):
        from repro.experiments.scale import run_schedule
        from tests.test_mqo_scale import GOLDEN_SPECS, small_config

        spec = GOLDEN_SPECS[name]
        digests = []

        def on_fleet(_name, collector, violations):
            assert violations == []
            digests.append(fleet_registry_digest(collector))

        run_schedule(
            small_config(schedules=(spec,), trace=True, fleet_metrics=True),
            spec, on_fleet=on_fleet,
        )
        assert digests == [GOLDEN_FLEET_REGISTRY[name]]


class TestFleetDashboards:
    def snapshot(self) -> dict:
        collector = FleetCollector(
            [telemetry_of(0, 0, 1.0), telemetry_of(1, 1, 2.0)]
        )
        return collector.snapshot()

    def test_terminal_dashboard_renders_panels_and_totals(self):
        from repro.reporting.dashboard import render_fleet_dashboard

        text = render_fleet_dashboard(self.snapshot(), title="unit")
        assert "fleet dashboard: unit (2 shards)" in text
        assert "shard panels" in text
        assert "fleet totals" in text
        assert "total_iv" in text

    def test_html_report_is_self_contained(self):
        from repro.reporting.dashboard import fleet_report_html

        html = fleet_report_html(self.snapshot(), title="Fleet unit")
        assert html.startswith("<!doctype html>")
        assert "Fleet unit" in html
        assert "shard" in html


class TestPerTableGauges:
    def test_table_sync_state_gauges(self):
        state = TableSyncState(half_life=10.0)
        state.apply(now=5.0, at=4.0, gap=1.0)
        state.publish(scheduled=7.0)
        gauges = state.gauges(now=8.0)
        assert gauges["sync.table.staleness"] == pytest.approx(4.0)  # 8 - 4
        assert gauges["sync.table.divergence"] == pytest.approx(3.0)  # 7 - 4
        assert gauges["sync.table.syncs"] == 1
        assert gauges["sync.table.last_gap"] == pytest.approx(1.0)

    def test_system_metrics_export_a_block_per_replica(self):
        from tests.test_obs_checker import traced_system

        system = traced_system(num_queries=3)
        tables = system.metrics()["tables"]
        assert sorted(tables) == sorted(
            replica.name for replica in system.catalog.replicas
        )
        for name, gauges in tables.items():
            replica = system.catalog.replica(name)
            assert gauges["sync.table.syncs"] == replica.sync_count
            assert gauges["sync.table.staleness"] == system.sim.now - (
                replica.realized_freshness_at(system.sim.now)
            )
