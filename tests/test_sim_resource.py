"""Unit tests: queueing resources (the sites' server pools)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resource import Resource


def hold(sim, resource, duration, log, tag):
    request = resource.request()
    yield request
    log.append((tag, "start", sim.now))
    yield sim.timeout(duration)
    resource.release(request)
    log.append((tag, "end", sim.now))


class TestResourceBasics:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_when_free(self, sim):
        resource = Resource(sim, capacity=1)
        log = []
        sim.process(hold(sim, resource, 2.0, log, "a"))
        sim.run()
        assert log == [("a", "start", 0.0), ("a", "end", 2.0)]

    def test_fifo_queueing(self, sim):
        resource = Resource(sim, capacity=1)
        log = []
        sim.process(hold(sim, resource, 2.0, log, "a"))
        sim.process(hold(sim, resource, 2.0, log, "b"))
        sim.run()
        starts = [(tag, t) for tag, what, t in log if what == "start"]
        assert starts == [("a", 0.0), ("b", 2.0)]

    def test_capacity_two_runs_in_parallel(self, sim):
        resource = Resource(sim, capacity=2)
        log = []
        for tag in ("a", "b"):
            sim.process(hold(sim, resource, 2.0, log, tag))
        sim.run()
        starts = [t for _tag, what, t in log if what == "start"]
        assert starts == [0.0, 0.0]

    def test_in_use_and_queue_length(self, sim):
        resource = Resource(sim, capacity=1)
        log = []
        sim.process(hold(sim, resource, 5.0, log, "a"))
        sim.process(hold(sim, resource, 5.0, log, "b"))
        sim.run(until=1.0)
        assert resource.in_use == 1
        assert resource.queue_length == 1

    def test_release_of_nonholder_raises(self, sim):
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        waiter = resource.request()
        sim.run()
        del holder
        with pytest.raises(SimulationError):
            resource.release(waiter)

    def test_wait_time_accounting(self, sim):
        resource = Resource(sim, capacity=1)
        a = resource.request()
        b = resource.request()
        sim.call_at(3.0, lambda: resource.release(a))
        assert b.wait_time == 0.0  # pending: waited 0 so far
        sim.run()
        assert a.wait_time == 0.0
        assert b.wait_time == pytest.approx(3.0)  # b waited 3


class TestCancel:
    def test_cancel_removes_queued_request(self, sim):
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        sim.run()
        waiter = resource.request()
        waiter.cancel()
        resource.release(holder)
        sim.run()
        assert resource.in_use == 0

    def test_cancel_of_granted_request_raises(self, sim):
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        sim.run()
        with pytest.raises(SimulationError):
            holder.cancel()
