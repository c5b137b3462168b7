"""Regression tests for the latency-accounting bugfixes.

Each test here failed on the pre-fix code:

* ``NetworkModel.transfer_time`` returned 0.0 for zero-byte payloads,
  skipping the connection latency an empty result still pays, and
  allocated a fresh default ``SiteLink`` per unconfigured-site lookup.
* ``PlanExecutor`` inferred the local queue wait by subtracting the plan's
  *estimated* max leg minutes from wall-clock time, so remote-site
  contention (legs waiting in a remote queue) was misattributed to the
  local server — and the clamp at zero hid negative artifacts.
* ``ReplicationManager._drive`` re-derived "the previous completion" with
  a ``now - 1e-9`` epsilon lookup, so completions closer together than the
  epsilon double-counted the staleness gap.
"""

from __future__ import annotations

import pytest

from repro.core.enumeration import make_plan
from repro.core.value import DiscountRates
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import StaticCostProvider
from repro.federation.executor import PlanExecutor
from repro.federation.network import NetworkModel
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.federation.system import ReplicationManager
from repro.obs.events import SYNC_APPLY
from repro.sim.scheduler import Simulator
from repro.sim.trace import Tracer
from repro.workload.query import DSSQuery

RATES = DiscountRates(0.01, 0.01)


class TestZeroByteTransfer:
    def test_zero_row_result_still_pays_base_latency(self):
        # A zero-byte (empty) result is still a round trip over the link.
        network = NetworkModel(base_latency=0.25, bandwidth=1_000.0)
        assert network.transfer_time(0.0) == pytest.approx(0.25)
        assert network.transfer_time(0.0, site=3) == pytest.approx(0.25)

    def test_transfer_time_is_latency_plus_bytes_over_bandwidth(self):
        network = NetworkModel(base_latency=0.25, bandwidth=1_000.0)
        assert network.transfer_time(500.0) == pytest.approx(0.75)

    def test_default_site_link_is_cached(self):
        # Unconfigured sites share one default SiteLink instead of
        # allocating a fresh one per lookup.
        network = NetworkModel()
        assert network.link(1) is network.link(2)
        assert network.link(1) is network.link(1)


def _executor_world():
    """One remote table at a capacity-1 site, generous local capacity."""
    sim = Simulator()
    catalog = Catalog()
    catalog.add_table(TableDef("t", site=0, row_count=100))
    sites = {
        LOCAL_SITE_ID: Site(sim, LOCAL_SITE_ID, capacity=4),
        0: Site(sim, 0, capacity=1),
    }
    provider = StaticCostProvider(
        catalog, by_remote_count={1: 4.0}, remote_leg_fraction=0.75
    )
    executor = PlanExecutor(sim, catalog, sites)
    return sim, catalog, provider, executor


class TestQueueWaitAttribution:
    def test_remote_contention_not_misattributed_to_local_queue(self):
        # Two queries contend at the capacity-1 remote site; the local
        # server is idle.  The old executor subtracted the *estimated* leg
        # minutes from wall-clock and booked the remote wait as local
        # queue_wait; the direct measurement must book it as remote_wait.
        sim, catalog, provider, executor = _executor_world()
        plans = []
        for qid in (1, 2):
            query = DSSQuery(query_id=qid, name=f"q{qid}", tables=("t",))
            plans.append(
                make_plan(
                    query, catalog, provider, RATES, 0.0, 0.0, frozenset({"t"})
                )
            )
        for plan in plans:
            executor.execute(plan)
        sim.run(until=50.0)
        assert len(executor.outcomes) == 2
        first, second = sorted(executor.outcomes, key=lambda o: o.completed_at)
        leg_minutes = 4.0 * 0.75
        assert first.queue_wait == 0.0
        assert first.remote_wait == 0.0
        # The second query waited a full leg at the remote site — and not
        # one second of it at the local server.
        assert second.remote_wait == pytest.approx(leg_minutes)
        assert second.queue_wait == 0.0

    def test_local_contention_still_measured(self):
        # Queue wait still reflects genuine local-server contention.
        sim = Simulator()
        catalog = Catalog()
        catalog.add_table(TableDef("t", site=0, row_count=100))
        catalog.add_replica("t", FixedSyncSchedule([1.0], tail_period=50.0))
        sites = {
            LOCAL_SITE_ID: Site(sim, LOCAL_SITE_ID, capacity=1),
            0: Site(sim, 0, capacity=1),
        }
        provider = StaticCostProvider(catalog, by_remote_count={0: 3.0, 1: 3.0})
        executor = PlanExecutor(sim, catalog, sites)
        for qid in (1, 2):
            query = DSSQuery(query_id=qid, name=f"q{qid}", tables=("t",))
            plan = make_plan(
                query, catalog, provider, RATES, 0.0, 0.0, frozenset()
            )
            executor.execute(plan)
        sim.run(until=50.0)
        waits = sorted(o.queue_wait for o in executor.outcomes)
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(3.0)


def sync_gaps(manager: ReplicationManager) -> list[float]:
    """The staleness gap each applied sync closed, in trace order."""
    return [
        record.detail["gap"] for record in manager.tracer.records
        if record.kind == SYNC_APPLY
    ]


class TestSyncDriverStrictlyIncreasing:
    def make(self, times, tail_period):
        sim = Simulator()
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=10))
        catalog.add_replica(
            "a", FixedSyncSchedule(list(times), tail_period=tail_period)
        )
        manager = ReplicationManager(
            sim, catalog, tracer=Tracer(lambda: sim.now)
        )
        return sim, catalog, manager

    def test_near_duplicate_completions_fire_once_each(self):
        # Two completions 5e-10 apart — closer than the old epsilon lookup
        # (now - 1e-9), which re-derived "previous completion" as the one
        # *before both* and double-counted the 5-minute staleness gap.
        sim, catalog, manager = self.make([5.0, 5.0 + 5e-10], tail_period=100.0)
        manager.start()
        sim.run(until=10.0)
        assert manager.total_syncs == 2
        assert catalog.replica("a").sync_count == 2
        first, second = sync_gaps(manager)
        assert first == pytest.approx(5.0)
        assert second < 1e-6  # the old epsilon lookup reported ~5.0 again
        assert first + second < 6.0

    def test_regular_schedule_gaps_unchanged(self):
        sim, _catalog, manager = self.make([2.0, 4.0, 6.0], tail_period=100.0)
        manager.start()
        sim.run(until=7.0)
        assert manager.total_syncs == 3
        gaps = sync_gaps(manager)
        assert sum(gaps) / len(gaps) == pytest.approx(2.0)

    def test_listeners_see_each_completion_once(self):
        sim, _catalog, manager = self.make([3.0, 3.0 + 5e-10], tail_period=100.0)
        manager.start()
        sim.run(until=10.0)
        seen = [
            record.detail["at"] for record in manager.tracer.records
            if record.kind == SYNC_APPLY
        ]
        assert len(seen) == 2
        assert seen[0] <= seen[1]
