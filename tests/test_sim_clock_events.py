"""Unit tests: simulation clock and event lifecycle."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import AllOf, AnyOf
from repro.sim.scheduler import Simulator
from repro.sim.timeline import Timeline


class TestClock:
    """The simulator's clock is its timeline's frontier: it starts where
    asked, never before 0, and only moves forward."""

    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_starts_at_given_time(self):
        assert Simulator(start=5.5).now == 5.5

    def test_rejects_negative_start(self):
        with pytest.raises(SchedulingError):
            Simulator(start=-1.0)

    def test_advances_forward(self):
        timeline = Timeline()
        timeline.advance_to(3.0)
        assert timeline.now == 3.0

    def test_advance_to_same_time_is_allowed(self):
        sim = Simulator(start=2.0)
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_rejects_backwards_movement(self):
        timeline = Timeline()
        timeline.advance_to(10.0)
        with pytest.raises(SchedulingError):
            timeline.advance_to(9.999)
        assert timeline.now == 10.0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_rejects_non_finite_times(self, time):
        with pytest.raises(SchedulingError):
            Timeline().advance_to(time)
        with pytest.raises(SchedulingError):
            Simulator(start=time)


class TestClockNameCollision:
    """Regression: two unrelated classes were both named ``Clock``.

    The monotone DES clock (``repro.sim.clock``) is gone — the simulator
    keeps its time on its timeline — so ``repro.sim.clocks.Clock``, the
    sim/wall event-clock protocol, is the only ``Clock`` left.
    """

    def test_clocks_clock_is_the_event_clock_protocol(self):
        from repro.sim.clocks import Clock as ClockProtocol
        from repro.sim.clocks import SimClock, WallClock

        assert isinstance(SimClock(), ClockProtocol)
        assert isinstance(WallClock(), ClockProtocol)

    def test_deprecated_aliases_are_gone(self):
        import repro.sim

        with pytest.raises(AttributeError):
            repro.sim.Clock
        with pytest.raises(ModuleNotFoundError):
            import repro.sim.clock  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        import repro.sim

        with pytest.raises(AttributeError):
            repro.sim.no_such_name


class TestEventLifecycle:
    def test_new_event_is_untriggered(self, sim):
        event = sim.event("e")
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_records_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.exception is error

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_value_of_failed_event_raises_original(self, sim):
        event = sim.event()
        event.fail(ValueError("original"))
        with pytest.raises(ValueError, match="original"):
            event.value

    def test_undefused_failure_propagates_from_run(self, sim):
        sim.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_defused_failure_does_not_propagate(self, sim):
        event = sim.event()
        event.fail(RuntimeError("handled"))
        event.defuse()
        sim.run()  # should not raise

    def test_callbacks_run_on_delivery(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        sim.run()
        assert seen == ["payload"]

    def test_timeout_fires_at_offset(self, sim):
        fired_at = []
        sim.timeout(7.5).callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [7.5]

    def test_timeout_carries_value(self, sim):
        got = []
        sim.timeout(1.0, value="tick").callbacks.append(
            lambda e: got.append(e.value)
        )
        sim.run()
        assert got == ["tick"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        t1, t2 = sim.timeout(1.0), sim.timeout(5.0)
        fired_at = []
        AllOf(sim, [t1, t2]).callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [5.0]

    def test_any_of_fires_on_first(self, sim):
        t1, t2 = sim.timeout(1.0), sim.timeout(5.0)
        fired_at = []
        AnyOf(sim, [t1, t2]).callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [1.0]

    def test_all_of_on_already_triggered_events(self, sim):
        e1, e2 = sim.event(), sim.event()
        e1.succeed(1)
        e2.succeed(2)
        condition = AllOf(sim, [e1, e2])
        assert condition.triggered

    def test_condition_rejects_foreign_simulator(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [sim.event(), other.event()])

    def test_all_of_propagates_child_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        condition = sim.all_of([good, bad])
        condition.defuse()
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert condition.triggered
        assert not condition.ok
