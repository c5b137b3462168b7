"""Unit tests: the simulator's event loop and run modes."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.scheduler import Simulator


class TestStepAndPeek:
    def test_step_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.step()
        assert sim.now == 2.5

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()


class TestRunModes:
    def test_run_to_exhaustion(self, sim):
        sim.timeout(1.0)
        sim.timeout(9.0)
        sim.run()
        assert sim.now == 9.0

    def test_run_until_deadline_stops_clock_exactly(self, sim):
        sim.timeout(1.0)
        sim.timeout(100.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_deadline_leaves_future_events(self, sim):
        fired_at = []
        sim.timeout(100.0).callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run(until=10.0)
        assert fired_at == []
        sim.run()
        assert fired_at == [100.0]

    def test_run_until_event(self, sim):
        stop = sim.timeout(7.0)
        sim.timeout(100.0)
        sim.run(until=stop)
        assert sim.now == 7.0

    def test_run_until_already_processed_event_returns_immediately(self, sim):
        stop = sim.timeout(1.0)
        sim.run()
        sim.run(until=stop)  # no-op, no exception
        assert sim.now == 1.0

    def test_run_until_event_that_never_fires_raises(self, sim):
        orphan = sim.event()
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(until=orphan)

    def test_run_until_past_deadline_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.run(until=0.5)

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            sim.timeout(1.0).callbacks.append(
                lambda e, t=tag: order.append(t)
            )
        sim.run()
        assert order == ["a", "b", "c"]


class TestCallAt:
    def test_call_at_runs_function_at_time(self, sim):
        ran_at = []
        sim.call_at(4.0, lambda: ran_at.append(sim.now))
        sim.run()
        assert ran_at == [4.0]

    def test_call_at_in_past_raises(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(1.0, lambda: None)

    def test_schedule_event_negative_delay_raises(self, sim):
        event = sim.event()
        with pytest.raises(SchedulingError):
            sim.schedule_event(event, delay=-1.0)


class TestDeterminism:
    def test_identical_programs_produce_identical_traces(self):
        def program(sim: Simulator) -> list[float]:
            times = []
            for delay in (3.0, 1.0, 2.0, 1.0):
                sim.timeout(delay).callbacks.append(
                    lambda e: times.append(sim.now)
                )
            sim.run()
            return times

        assert program(Simulator()) == program(Simulator())


class TestNonFiniteTimes:
    """A NaN or infinite time is refused where it is made, not discovered
    later as a silently empty (NaN) or runaway (``inf``) simulation."""

    def test_nan_timeout_raises_at_the_call(self, sim):
        fired = []
        sim.timeout(1.0).callbacks.append(lambda e: fired.append(sim.now))
        with pytest.raises(SchedulingError):
            sim.timeout(float("nan"))
        sim.run()
        assert fired == [1.0]

    def test_infinite_timeout_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.timeout(float("inf"))
        sim.run()
        assert sim.now == 0.0

    def test_run_until_nan_raises_and_leaves_now(self, sim):
        sim.timeout(1.0)
        sim.run(until=0.5)
        with pytest.raises(SchedulingError):
            sim.run(until=float("nan"))
        assert sim.now == 0.5

    def test_run_until_inf_equals_run(self):
        def program(until):
            sim = Simulator()
            times = []
            for delay in (3.0, 1.0, 2.0):
                sim.timeout(delay).callbacks.append(
                    lambda e: times.append(sim.now)
                )
            sim.run(until=until)
            return times, sim.now

        assert program(float("inf")) == program(None) == ([1.0, 2.0, 3.0], 3.0)
