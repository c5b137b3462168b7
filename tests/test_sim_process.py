"""Unit tests: generator-based simulation processes."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError
from repro.sim.scheduler import Simulator


class TestBasicExecution:
    def test_process_runs_and_advances_time(self, sim):
        trace = []

        def worker(sim):
            trace.append(("start", sim.now))
            yield sim.timeout(4.0)
            trace.append(("end", sim.now))

        sim.process(worker(sim))
        sim.run()
        assert trace == [("start", 0.0), ("end", 4.0)]

    def test_process_return_value_becomes_event_value(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)
            return "result"

        process = sim.process(worker(sim))
        sim.run()
        assert process.value == "result"

    def test_timeout_value_is_sent_into_generator(self, sim):
        got = []

        def worker(sim):
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(worker(sim))
        sim.run()
        assert got == ["payload"]

    def test_process_waiting_on_process_joins(self, sim):
        def child(sim):
            yield sim.timeout(3.0)
            return 99

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + 1

        parent_proc = sim.process(parent(sim))
        sim.run()
        assert parent_proc.value == 100

    def test_waiting_on_already_triggered_event(self, sim):
        def worker(sim):
            event = sim.event()
            event.succeed("early")
            value = yield event
            return value

        process = sim.process(worker(sim))
        sim.run()
        assert process.value == "early"

    def test_requires_generator(self, sim):
        with pytest.raises(ProcessError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_is_alive_tracks_completion(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)

        process = sim.process(worker(sim))
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestFailures:
    def test_yielding_non_event_fails_process(self, sim):
        def worker(sim):
            yield 42  # not an Event

        process = sim.process(worker(sim))
        process.defuse()
        sim.run()
        assert not process.ok
        assert isinstance(process.exception, ProcessError)

    def test_yielding_foreign_event_fails_process(self, sim):
        other = Simulator()

        def worker(sim):
            yield other.timeout(1.0)

        process = sim.process(worker(sim))
        process.defuse()
        sim.run()
        assert isinstance(process.exception, ProcessError)

    def test_exception_inside_process_fails_it(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)
            raise ValueError("inside")

        process = sim.process(worker(sim))
        process.defuse()
        sim.run()
        assert isinstance(process.exception, ValueError)

    def test_failed_event_is_thrown_into_waiter(self, sim):
        caught = []

        def worker(sim):
            event = sim.event()
            sim.call_at(1.0, lambda: event.fail(RuntimeError("pushed")))
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(worker(sim))
        sim.run()
        assert caught == ["pushed"]
