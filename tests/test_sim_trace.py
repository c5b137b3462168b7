"""Unit tests: the simulation tracer and its system integration."""

from __future__ import annotations

import pytest

from repro.core.value import DiscountRates
from repro.errors import SimulationError
from repro.sim.trace import TraceRecord, Tracer


class TestTracer:
    def make(self, capacity=None):
        clock = [0.0]
        tracer = Tracer(lambda: clock[0], capacity=capacity)
        return clock, tracer

    def test_emit_records_time_and_detail(self):
        clock, tracer = self.make()
        clock[0] = 3.5
        tracer.emit("submit", "Q1", priority=2)
        record = tracer.records[0]
        assert record.time == 3.5
        assert record.kind == "submit"
        assert record.subject == "Q1"
        assert record.detail == {"priority": 2}

    def test_disabled_tracer_records_nothing(self):
        _clock, tracer = self.make()
        tracer.enabled = False
        tracer.emit("x", "y")
        assert len(tracer) == 0

    def test_capacity_evicts_oldest(self):
        clock, tracer = self.make(capacity=2)
        for index in range(4):
            clock[0] = float(index)
            tracer.emit("tick", str(index))
        assert len(tracer) == 2
        assert tracer.dropped == 2
        assert [record.subject for record in tracer.records] == ["2", "3"]

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Tracer(lambda: 0.0, capacity=0)

    def test_filter_by_kind_subject_and_window(self):
        clock, tracer = self.make()
        for time, kind, subject in (
            (1.0, "submit", "Q1"),
            (2.0, "complete", "Q1"),
            (3.0, "submit", "Q2"),
        ):
            clock[0] = time
            tracer.emit(kind, subject)
        assert len(list(tracer.filter(kind="submit"))) == 2
        assert len(list(tracer.filter(subject="Q1"))) == 2
        assert len(list(tracer.filter(since=2.0, until=3.0))) == 2
        assert len(list(tracer.filter(kind="submit", subject="Q2"))) == 1

    def test_timeline_renders_lines(self):
        clock, tracer = self.make()
        clock[0] = 1.25
        tracer.emit("sync", "orders", at=1.25)
        text = tracer.timeline()
        assert "sync" in text
        assert "orders" in text
        assert "at=1.25" in text

    def test_timeline_notes_drops(self):
        clock, tracer = self.make(capacity=1)
        tracer.emit("a", "1")
        tracer.emit("b", "2")
        assert "dropped" in tracer.timeline()

    def test_clear(self):
        _clock, tracer = self.make()
        tracer.emit("x", "y")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_emit_rejects_time_going_backwards(self):
        clock, tracer = self.make()
        clock[0] = 5.0
        tracer.emit("tick", "a")
        clock[0] = 4.0
        with pytest.raises(SimulationError):
            tracer.emit("tick", "b")
        # The offending record was not appended.
        assert [record.subject for record in tracer.records] == ["a"]

    def test_emit_allows_equal_times(self):
        clock, tracer = self.make()
        clock[0] = 2.0
        tracer.emit("tick", "a")
        tracer.emit("tick", "b")
        assert len(tracer) == 2

    def test_clear_resets_the_time_guard(self):
        clock, tracer = self.make()
        clock[0] = 9.0
        tracer.emit("tick", "a")
        tracer.clear()
        clock[0] = 1.0
        tracer.emit("tick", "b")  # fine after clear
        assert len(tracer) == 1

    def test_capacity_drops_oldest_never_newest(self):
        clock, tracer = self.make(capacity=3)
        for index in range(10):
            clock[0] = float(index)
            tracer.emit("tick", str(index))
        assert [record.subject for record in tracer.records] == ["7", "8", "9"]
        assert tracer.dropped == 7
        # The newest record is always retained.
        clock[0] = 10.0
        tracer.emit("tick", "10")
        assert tracer.records[-1].subject == "10"
        assert len(tracer) == 3

    def test_record_format(self):
        record = TraceRecord(2.0, "plan", "Q3", {"remote": "a,b"})
        text = record.format()
        assert "plan" in text
        assert "remote=a,b" in text


class TestSubscribe:
    def make(self, capacity=None):
        clock = [0.0]
        tracer = Tracer(lambda: clock[0], capacity=capacity)
        return clock, tracer

    def test_subscribers_see_every_record_in_order(self):
        clock, tracer = self.make()
        seen = []
        tracer.subscribe(seen.append)
        for index in range(4):
            clock[0] = float(index)
            tracer.emit("tick", str(index))
        assert [record.subject for record in seen] == ["0", "1", "2", "3"]
        assert seen == tracer.records

    def test_subscribers_see_records_a_bounded_tracer_evicts(self):
        clock, tracer = self.make(capacity=2)
        seen = []
        tracer.subscribe(seen.append)
        for index in range(6):
            clock[0] = float(index)
            tracer.emit("tick", str(index))
        # The retained window lost the prefix; the live feed did not.
        assert len(tracer) == 2
        assert tracer.dropped == 4
        assert [record.subject for record in seen] == [
            "0", "1", "2", "3", "4", "5",
        ]

    @pytest.mark.parametrize("capacity, emits", [(1, 2), (3, 10), (64, 1000)])
    def test_full_tracer_keeps_exactly_the_newest_capacity_records(
        self, capacity, emits
    ):
        clock, tracer = self.make(capacity=capacity)
        seen = []
        tracer.subscribe(seen.append)
        for index in range(emits):
            clock[0] = float(index)
            tracer.emit("tick", str(index))
        assert tracer.records == seen[-capacity:]
        assert tracer.dropped == emits - capacity
        assert [record.subject for record in seen] == [
            str(index) for index in range(emits)
        ]

    def test_multiple_subscribers_fire_in_attach_order(self):
        _clock, tracer = self.make()
        order = []
        tracer.subscribe(lambda record: order.append("first"))
        tracer.subscribe(lambda record: order.append("second"))
        tracer.emit("tick", "a")
        assert order == ["first", "second"]

    def test_disabled_tracer_does_not_notify(self):
        _clock, tracer = self.make()
        seen = []
        tracer.subscribe(seen.append)
        tracer.enabled = False
        tracer.emit("tick", "a")
        assert seen == []

    def test_subscriber_may_emit_followup_records(self):
        # The SLO monitor emits alert events from inside a subscription;
        # the follow-up record must land after the triggering one.
        _clock, tracer = self.make()

        def alert_on_spike(record):
            if record.kind == "spike":
                tracer.emit("alert", record.subject)

        tracer.subscribe(alert_on_spike)
        tracer.emit("spike", "s1")
        assert [record.kind for record in tracer.records] == ["spike", "alert"]


class TestSystemTracing:
    def test_traced_system_records_lifecycle(self):
        from repro.baselines import ivqp_router
        from repro.federation.system import (
            SystemConfig,
            TableSpec,
            build_system,
        )
        from repro.workload.query import DSSQuery

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
        system.submit(DSSQuery(query_id=1, name="q", tables=("a", "b")), at=9.0)
        system.run()

        tracer = system.tracer
        assert tracer is not None
        kinds = [record.kind for record in tracer.records]
        assert "submit" in kinds
        assert "plan" in kinds
        assert "complete" in kinds
        assert "sync" in kinds
        # Causal ordering for the query's own lifecycle: the full span
        # event stream, submission through audit ledger.
        q_kinds = [record.kind for record in tracer.filter(subject="q")]
        assert q_kinds[:3] == ["submit", "plan", "exec.start"]
        assert q_kinds[-3:] == ["local.done", "complete", "ledger"]
        assert "remote.done" in q_kinds and "local.granted" in q_kinds
        times = [record.time for record in tracer.filter(subject="q")]
        assert times == sorted(times)

    def test_untraced_system_has_no_tracer(self):
        from repro.baselines import federation_router
        from repro.federation.system import (
            SystemConfig,
            TableSpec,
            build_system,
        )

        config = SystemConfig(
            tables=[TableSpec("a", site=0, row_count=100)],
            replicated=[],
        )
        system = build_system(config, federation_router)
        assert system.tracer is None
