"""Fault injection, fault-tolerant execution and degraded-mode planning.

Covers the failure-semantics subsystem end to end: the kernel-level
outage timelines (``repro.sim.faults``), the seeded fault plans
(``repro.federation.faults``), the executor's retry/failover machinery,
the replication manager's skip/delay handling and outage tracing,
availability-aware plan enumeration, a reduced run of the EXT3
graceful-degradation sweep and the full sweep against
``results/faults.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import ivqp_router
from repro.core.enumeration import (
    gather_combos,
    make_plan,
    sync_points_between,
)
from repro.core.optimizer import IVQPOptimizer
from repro.core.value import DiscountRates
from repro.errors import ConfigError
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import StaticCostProvider
from repro.federation.executor import ExecutionPolicy, PlanExecutor
from repro.federation.faults import (
    SYNC_DELAY,
    SYNC_OK,
    SYNC_SKIP,
    FaultPlan,
    LinkDegradation,
)
from repro.federation.network import NetworkModel
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.federation.system import (
    ReplicationManager,
    SystemConfig,
    TableSpec,
    build_system,
)
from repro.sim.faults import OutageTimeline, Window, generate_outage_windows
from repro.sim.rng import RandomSource
from repro.sim.scheduler import Simulator
from repro.sim.trace import Tracer
from repro.workload.query import DSSQuery

RATES = DiscountRates(0.01, 0.01)


class TestWindow:
    def test_half_open_containment(self):
        window = Window(2.0, 5.0)
        assert window.contains(2.0)
        assert window.contains(4.999)
        assert not window.contains(5.0)
        assert not window.contains(1.999)
        assert window.duration == pytest.approx(3.0)

    def test_degenerate_windows_rejected(self):
        with pytest.raises(ConfigError):
            Window(3.0, 3.0)
        with pytest.raises(ConfigError):
            Window(5.0, 4.0)
        with pytest.raises(ConfigError):
            Window(-1.0, 4.0)


class TestOutageTimeline:
    def make(self):
        return OutageTimeline([Window(2.0, 4.0), Window(10.0, 11.0)])

    def test_point_queries(self):
        timeline = self.make()
        assert not timeline.is_down(1.0)
        assert timeline.is_down(2.0)
        assert timeline.is_down(3.5)
        assert not timeline.is_down(4.0)  # half-open end
        assert timeline.is_down(10.5)
        assert not timeline.is_down(11.0)

    def test_up_at_and_next_down(self):
        timeline = self.make()
        assert timeline.up_at(1.0) == 1.0
        assert timeline.up_at(3.0) == 4.0
        assert timeline.up_at(10.0) == 11.0
        assert timeline.next_down_after(0.0) == 2.0
        assert timeline.next_down_after(3.0) == 3.0  # already down
        assert timeline.next_down_after(4.0) == 10.0
        assert timeline.next_down_after(11.0) == float("inf")

    def test_downtime_before(self):
        timeline = self.make()
        assert timeline.downtime_before(3.0) == pytest.approx(1.0)
        assert timeline.downtime_before(100.0) == pytest.approx(3.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigError):
            OutageTimeline([Window(0.0, 5.0), Window(4.0, 6.0)])

    def test_generator_is_deterministic(self):
        first = generate_outage_windows(
            RandomSource(7, "outage/0"), 500.0, 0.05, 8.0
        )
        second = generate_outage_windows(
            RandomSource(7, "outage/0"), 500.0, 0.05, 8.0
        )
        assert first.windows == second.windows
        assert first  # the rate is high enough to draw something

    def test_zero_rate_means_no_outages(self):
        timeline = generate_outage_windows(
            RandomSource(1, "x"), 1_000.0, 0.0, 10.0
        )
        assert not timeline
        assert timeline.next_down_after(0.0) == float("inf")


class TestFaultPlan:
    def test_generate_identical_seeds_identical_timelines(self):
        kwargs = dict(
            horizon=800.0, site_ids=[0, 1, 2], outage_rate=0.01,
            outage_mean_duration=6.0, sync_skip_prob=0.1,
            sync_delay_prob=0.2, sync_delay_mean=3.0,
        )
        first = FaultPlan.generate(seed=11, **kwargs)
        second = FaultPlan.generate(seed=11, **kwargs)
        other = FaultPlan.generate(seed=12, **kwargs)
        for site in (0, 1, 2):
            assert (
                first.site_outages.get(site, OutageTimeline()).windows
                == second.site_outages.get(site, OutageTimeline()).windows
            )
        assert any(
            first.site_outages.get(site, OutageTimeline()).windows
            != other.site_outages.get(site, OutageTimeline()).windows
            for site in (0, 1, 2)
        )

    def test_adding_a_site_never_perturbs_existing_sites(self):
        small = FaultPlan.generate(
            seed=5, horizon=800.0, site_ids=[0, 1], outage_rate=0.02
        )
        large = FaultPlan.generate(
            seed=5, horizon=800.0, site_ids=[0, 1, 2, 3], outage_rate=0.02
        )
        for site in (0, 1):
            assert (
                small.site_outages.get(site, OutageTimeline()).windows
                == large.site_outages.get(site, OutageTimeline()).windows
            )

    def test_sync_disposition_is_order_independent(self):
        plan_a = FaultPlan(sync_skip_prob=0.3, sync_delay_prob=0.3, seed=9)
        plan_b = FaultPlan(sync_skip_prob=0.3, sync_delay_prob=0.3, seed=9)
        times = [1.0, 2.5, 7.0, 11.25]
        forward = [plan_a.sync_disposition("t", 0, time) for time in times]
        backward = [
            plan_b.sync_disposition("t", 0, time) for time in reversed(times)
        ]
        assert forward == list(reversed(backward))
        kinds = {kind for kind, _delay in forward}
        assert kinds <= {SYNC_OK, SYNC_SKIP, SYNC_DELAY}

    def test_sync_from_down_site_always_skips(self):
        plan = FaultPlan(
            site_outages={0: OutageTimeline([Window(4.0, 8.0)])},
            seed=3,
        )
        assert plan.sync_disposition("t", 0, 5.0) == (SYNC_SKIP, 0.0)
        assert plan.unreliable_sync("t", 0, 5.0)
        assert plan.sync_disposition("t", 0, 9.0) == (SYNC_OK, 0.0)
        # The caller names the table's site: the same table based at an
        # up site syncs on time.
        assert plan.sync_disposition("t", 1, 5.0) == (SYNC_OK, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(sync_skip_prob=0.7, sync_delay_prob=0.7)
        with pytest.raises(ConfigError):
            FaultPlan(sync_skip_prob=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(sync_delay_mean=0.0)
        with pytest.raises(ConfigError):
            LinkDegradation(Window(0.0, 1.0), latency_multiplier=0.5)


def fault_world(
    windows=(),
    policy=None,
    with_replica=False,
    local_capacity=2,
    network=None,
):
    """One remote table at site 0 with an optional outage timeline there."""
    sim = Simulator()
    catalog = Catalog()
    catalog.add_table(TableDef("t", site=0, row_count=100))
    if with_replica:
        catalog.add_replica("t", FixedSyncSchedule([1.0], tail_period=1_000.0))
    sites = {
        LOCAL_SITE_ID: Site(sim, LOCAL_SITE_ID, capacity=local_capacity),
        0: Site(sim, 0, capacity=1),
    }
    plan = FaultPlan(
        site_outages=(
            {0: OutageTimeline([Window(*spec) for spec in windows])}
            if windows
            else None
        ),
    )
    provider = StaticCostProvider(
        catalog, by_remote_count={0: 1.0, 1: 4.0}, remote_leg_fraction=0.75
    )
    executor = PlanExecutor(
        sim, catalog, sites,
        policy=policy, faults=plan, cost_provider=provider, network=network,
    )
    return sim, catalog, provider, plan, executor


def remote_plan(catalog, provider, qid=1):
    query = DSSQuery(query_id=qid, name=f"q{qid}", tables=("t",))
    return make_plan(
        query, catalog, provider, RATES, 0.0, 0.0, frozenset({"t"})
    )


class TestExecutorFaultHandling:
    def test_fault_free_run_is_clean(self):
        sim, catalog, provider, plan, executor = fault_world()
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        assert not outcome.degraded and not outcome.failed
        assert outcome.retries == 0 and outcome.failovers == 0
        assert outcome.completed_at == pytest.approx(4.0)  # 3.0 leg + 1.0 local
        assert outcome.information_value > 0.0

    def test_down_at_request_waits_out_outage_and_retries(self):
        policy = ExecutionPolicy(max_retries=3, retry_backoff=0.1)
        sim, catalog, provider, plan, executor = fault_world(
            windows=[(0.0, 2.0)], policy=policy
        )
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        assert outcome.retries == 1
        assert outcome.degraded and not outcome.failed
        # Recovery at 2.0 + one backoff 0.1, leg 3.0, local 1.0.
        assert outcome.completed_at == pytest.approx(6.1)
        # Base data is as-of the retried leg's actual start.
        assert outcome.data_timestamp == pytest.approx(2.1)

    def test_mid_leg_outage_loses_the_work_and_retries(self):
        policy = ExecutionPolicy(max_retries=3, retry_backoff=0.1)
        sim, catalog, provider, plan, executor = fault_world(
            windows=[(1.0, 2.0)], policy=policy
        )
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        assert outcome.retries == 1
        assert outcome.degraded and not outcome.failed
        # Work from 0.0-1.0 is lost; rerun starts 2.1, leg 3.0, local 1.0.
        assert outcome.completed_at == pytest.approx(6.1)

    def test_exhausted_retries_fail_over_to_replica(self):
        policy = ExecutionPolicy(max_retries=0, failover=True)
        sim, catalog, provider, plan, executor = fault_world(
            windows=[(0.0, 900.0)], policy=policy, with_replica=True
        )
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        assert outcome.failovers == 1
        assert outcome.degraded and not outcome.failed
        # The failover plan reads the replica: no remote legs remain.
        assert outcome.plan.remote_tables == frozenset()
        assert outcome.completed_at == pytest.approx(1.0)  # replica-only scan
        assert outcome.information_value > 0.0

    def test_no_replica_means_recorded_failure_not_a_lost_query(self):
        policy = ExecutionPolicy(max_retries=0, failover=True)
        sim, catalog, provider, plan, executor = fault_world(
            windows=[(0.0, 900.0)], policy=policy, with_replica=False
        )
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes  # conservation: still one outcome
        assert outcome.failed and outcome.degraded
        assert outcome.information_value == 0.0
        assert "FAILED" in outcome.describe()

    def test_failover_disabled_fails_the_query(self):
        policy = ExecutionPolicy(max_retries=0, failover=False)
        sim, catalog, provider, plan, executor = fault_world(
            windows=[(0.0, 900.0)], policy=policy, with_replica=True
        )
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        assert outcome.failed
        assert outcome.failovers == 0

    def test_leg_timeout_withdraws_from_stuck_queue_and_retries(self):
        # Query 1 occupies the capacity-1 remote site for 3 minutes; query
        # 2's leg times out of the queue at 1.0, backs off, and eventually
        # lands once the site frees up.
        policy = ExecutionPolicy(
            max_retries=3, retry_backoff=0.1, leg_timeout=1.0
        )
        sim, catalog, provider, plan, executor = fault_world(policy=policy)
        executor.execute(remote_plan(catalog, provider, qid=1))
        executor.execute(remote_plan(catalog, provider, qid=2))
        sim.run(until=50.0)
        assert len(executor.outcomes) == 2
        second = max(executor.outcomes, key=lambda o: o.completed_at)
        assert second.retries >= 1
        assert second.degraded and not second.failed
        assert second.information_value > 0.0

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            ExecutionPolicy(retry_backoff=-0.5)
        with pytest.raises(ConfigError):
            ExecutionPolicy(leg_timeout=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_policy_rejects_non_finite_times(self, bad):
        with pytest.raises(ConfigError):
            ExecutionPolicy(retry_backoff=bad)
        with pytest.raises(ConfigError):
            ExecutionPolicy(leg_timeout=bad)
        assert ExecutionPolicy(leg_timeout=None).leg_timeout is None

    def test_degradation_penalty_slows_the_leg(self):
        sim, catalog, provider, plan, executor = fault_world()
        plan.degradations = {
            0: (
                LinkDegradation(
                    Window(0.0, 100.0),
                    latency_multiplier=1.0,
                    bandwidth_multiplier=2.0,
                ),
            )
        }
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        # Leg doubles from 3.0 to 6.0 under the saturated link.
        assert outcome.completed_at == pytest.approx(7.0)
        assert outcome.retries == 0 and not outcome.failed
        assert plan.leg_penalty(0, 0.0, 3.0, 0.0) == pytest.approx(3.0)

    def test_degraded_link_multiplies_the_networks_base_latency(self):
        sim, catalog, provider, plan, executor = fault_world(
            network=NetworkModel(base_latency=0.5)
        )
        plan.degradations = {
            0: (
                LinkDegradation(
                    Window(0.0, 100.0),
                    latency_multiplier=3.0,
                    bandwidth_multiplier=1.0,
                ),
            )
        }
        executor.execute(remote_plan(catalog, provider))
        sim.run(until=50.0)
        (outcome,) = executor.outcomes
        # The 3.0 leg pays 0.5 x (3 - 1) of extra latency, then local 1.0.
        assert outcome.completed_at == pytest.approx(5.0)


class TestReplicationUnderFaults:
    def make(self, plan, times=(2.0, 4.0, 6.0)):
        sim = Simulator()
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=10))
        catalog.add_replica(
            "a", FixedSyncSchedule(list(times), tail_period=1_000.0)
        )
        manager = ReplicationManager(sim, catalog, faults=plan)
        return sim, catalog, manager

    def test_skipped_syncs_never_touch_the_replica(self):
        sim, catalog, manager = self.make(
            FaultPlan(sync_skip_prob=1.0, seed=2)
        )
        manager.start()
        sim.run(until=10.0)
        assert manager.total_syncs == 0
        assert manager.syncs_skipped == 3
        assert manager.syncs_delayed == 0
        replica = catalog.replica("a")
        # The schedule promises freshness 6.0 at t=10; reality delivered
        # nothing past the initial load.
        assert replica.freshness_at(10.0) == pytest.approx(6.0)
        assert replica.realized_freshness_at(10.0) == replica.initial_timestamp

    def test_delayed_syncs_land_late(self):
        sim, catalog, manager = self.make(
            FaultPlan(sync_delay_prob=1.0, sync_delay_mean=2.0, seed=2)
        )
        manager.start()
        sim.run(until=200.0)
        assert manager.total_syncs == 3
        # The manager counts a sync as delayed only when it slips > 0.
        assert manager.syncs_delayed == 3
        assert manager.syncs_skipped == 0
        replica = catalog.replica("a")
        # The first sync was due at 2.0 and had not landed by then.
        assert replica.realized_freshness_at(2.0) < replica.freshness_at(2.0)
        # At every probe instant reality trails (or matches) the promise.
        for probe in (2.5, 4.5, 6.5, 9.0):
            assert (
                replica.realized_freshness_at(probe)
                <= replica.freshness_at(probe) + 1e-12
            )

    def test_fault_free_manager_matches_published_schedule(self):
        sim, catalog, manager = self.make(FaultPlan())
        manager.start()
        sim.run(until=10.0)
        assert manager.total_syncs == 3
        assert manager.syncs_skipped == 0 and manager.syncs_delayed == 0
        replica = catalog.replica("a")
        assert replica.realized_freshness_at(10.0) == pytest.approx(
            replica.freshness_at(10.0)
        )

    @pytest.mark.parametrize(
        "start, edges",
        [
            (0.0, [(1.0, "fault.down"), (2.0, "fault.up")]),
            # Started inside the window: its start is traced at once.
            (1.5, [(1.5, "fault.down"), (2.0, "fault.up")]),
        ],
        ids=["before-window", "inside-window"],
    )
    def test_traced_run_records_outage_edges(self, start, edges):
        sim = Simulator(start=start)
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=10))
        plan = FaultPlan(site_outages={
            0: OutageTimeline([Window(1.0, 2.0)]),
            # Site 5 hosts no table of this catalog: nothing to trace.
            5: OutageTimeline([Window(1.0, 2.0)]),
        })
        tracer = Tracer(lambda: sim.now)
        ReplicationManager(sim, catalog, faults=plan, tracer=tracer).start()
        sim.run(until=5.0)
        records = [r for r in tracer.records if r.kind.startswith("fault.")]
        assert [(r.time, r.kind) for r in records] == edges
        assert {r.subject for r in records} == {"site:0"}

    def test_a_shared_plan_reads_each_systems_table_sites(self):
        # One plan, site 0 down over [0, 10): a system whose replica "a"
        # is based at site 0 skips all three syncs, and a later system
        # built from the same plan with "a" at site 1 skips none.
        plan = FaultPlan(site_outages={0: OutageTimeline([Window(0.0, 10.0)])})

        def skipped(site):
            config = SystemConfig(
                tables=[TableSpec("a", site=site, row_count=10)],
                replicated=["a"],
                fault_plan=plan,
            )
            schedules = {
                "a": FixedSyncSchedule([2.0, 4.0, 6.0], tail_period=1_000.0)
            }
            system = build_system(config, ivqp_router, schedules=schedules)
            system.run(until=10.0)
            return system.replication.syncs_skipped

        assert skipped(0) == 3
        assert skipped(1) == 0


def planning_catalog():
    catalog = Catalog()
    catalog.add_table(TableDef("a", site=0, row_count=2_000))
    catalog.add_table(TableDef("b", site=1, row_count=2_000))
    catalog.add_replica(
        "a", FixedSyncSchedule([1.0, 5.0, 9.0], tail_period=4.0)
    )
    return catalog


class TestAvailabilityAwarePlanning:
    def test_gather_combos_keep_down_sites_on_replicas(self):
        catalog = planning_catalog()
        query = DSSQuery(query_id=1, name="q", tables=("a", "b"))
        availability = FaultPlan(
            site_outages={0: OutageTimeline([Window(0.0, 10.0)])}
        )
        during = gather_combos(query, catalog, 5.0, availability)
        after = gather_combos(query, catalog, 20.0, availability)
        # "b" has no replica and must always be read remotely; "a" must
        # stay on its replica while site 0 is down.
        assert during == [frozenset({"b"})]
        assert frozenset({"a", "b"}) in after

    def test_sync_points_skip_unreliable_completions(self):
        catalog = planning_catalog()
        query = DSSQuery(query_id=1, name="q", tables=("a",))
        reliable = sync_points_between(query, catalog, 0.0, 10.0)
        assert reliable == [1.0, 5.0, 9.0]
        all_skip = FaultPlan(sync_skip_prob=1.0, seed=4)
        assert sync_points_between(query, catalog, 0.0, 10.0, all_skip) == []

    def test_optimizer_seed_plan_avoids_down_site(self):
        catalog = planning_catalog()
        provider = StaticCostProvider(
            catalog, by_remote_count={0: 1.0, 1: 3.0, 2: 5.0}
        )
        query = DSSQuery(query_id=1, name="q", tables=("a",))
        availability = FaultPlan(
            site_outages={0: OutageTimeline([Window(0.0, 500.0)])}
        )
        blind = IVQPOptimizer(catalog, provider, RATES)
        aware = IVQPOptimizer(
            catalog, provider, RATES, availability=availability
        )
        blind_plan = blind.choose_plan(query, submitted_at=2.0)
        aware_plan = aware.choose_plan(query, submitted_at=2.0)
        # The blind optimizer may bet on the unreachable base table; the
        # aware one must not.
        assert "a" not in aware_plan.remote_tables
        assert aware_plan.information_value > 0.0
        assert blind_plan.information_value >= aware_plan.information_value

    def test_optimizer_without_availability_unchanged(self):
        catalog = planning_catalog()
        provider = StaticCostProvider(
            catalog, by_remote_count={0: 1.0, 1: 3.0, 2: 5.0}
        )
        query = DSSQuery(query_id=1, name="q", tables=("a", "b"))
        plain = IVQPOptimizer(catalog, provider, RATES)
        with_none = IVQPOptimizer(catalog, provider, RATES, availability=None)
        first = plain.choose_plan(query, submitted_at=0.0)
        second = with_none.choose_plan(query, submitted_at=0.0)
        assert first.describe() == second.describe()
        assert first.information_value == second.information_value


class TestGracefulDegradationSweep:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments.config import TpchSetup
        from repro.experiments.faults import FaultSweepConfig, run_fault_sweep

        config = FaultSweepConfig(
            setup=TpchSetup(scale=0.0005, seed=7),
            outage_rates=(0.0, 0.02),
            outage_mean_duration=8.0,
            approaches=("ivqp",),
            rounds=1,
        )
        return run_fault_sweep(config)

    def rows(self, table):
        return [dict(zip(table.headers, row)) for row in table.rows]

    def test_every_cell_reported(self, table):
        rows = self.rows(table)
        assert len(rows) == 4  # 2 rates x 1 approach x 2 policies
        assert {row["policy"] for row in rows} == {"retry", "none"}

    def test_retry_policy_never_loses_a_query(self, table):
        for row in self.rows(table):
            if row["policy"] == "retry":
                assert row["failed"] == 0

    def test_fault_free_rate_is_policy_invariant(self, table):
        clean = [r for r in self.rows(table) if r["outage_rate"] == 0.0]
        ivs = {r["mean_iv"] for r in clean}
        assert len(ivs) == 1  # no outages -> the policies never diverge

    def test_outages_cost_information_value(self, table):
        by_key = {
            (r["outage_rate"], r["policy"]): r for r in self.rows(table)
        }
        assert (
            by_key[(0.02, "retry")]["mean_iv"]
            <= by_key[(0.0, "retry")]["mean_iv"]
        )
        faulty = by_key[(0.02, "retry")]
        assert faulty["retries"] + faulty["failovers"] + faulty["degraded"] > 0

    def test_brittle_policy_loses_at_least_as_many(self, table):
        by_key = {
            (r["outage_rate"], r["policy"]): r for r in self.rows(table)
        }
        assert (
            by_key[(0.02, "none")]["failed"]
            >= by_key[(0.02, "retry")]["failed"]
        )


FAULTS_TXT = Path(__file__).resolve().parents[1] / "results" / "faults.txt"


def test_ext3_table_matches_committed_faults_txt():
    """The default EXT3 sweep renders exactly ``results/faults.txt`` (less
    its wall-clock ``[faults done in …]`` line).  Re-capture it with
    ``PYTHONPATH=src python -m repro faults --output results/faults.txt``."""
    from repro.experiments.faults import run_fault_sweep
    from repro.reporting.export import render

    committed = "".join(
        line
        for line in FAULTS_TXT.read_text(encoding="utf-8").splitlines(True)
        if not line.startswith("[faults done in ")
    )
    assert committed == f"== faults ==\n{render(run_fault_sweep(), 'text')}\n\n"
