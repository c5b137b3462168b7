"""Unit tests: sites, replication manager, executor, system façade."""

from __future__ import annotations

import pytest

from repro.baselines import federation_router, ivqp_router, warehouse_router
from repro.core.value import DiscountRates
from repro.errors import ConfigError
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.federation.sync import build_schedules
from repro.federation.system import (
    ReplicationManager,
    SystemConfig,
    TableSpec,
    build_system,
)
from repro.obs.events import SYNC_APPLY
from repro.sim.scheduler import Simulator
from repro.sim.trace import Tracer
from repro.workload.query import DSSQuery, Workload


class TestSite:
    def test_local_flag(self, sim):
        assert Site(sim, LOCAL_SITE_ID).is_local
        assert not Site(sim, 3).is_local

    def test_default_names(self, sim):
        assert Site(sim, LOCAL_SITE_ID).name == "local-dss"
        assert Site(sim, 2).name == "site-2"

    def test_capacity_validation(self, sim):
        with pytest.raises(ConfigError):
            Site(sim, 0, capacity=0)


class TestBuildSchedules:
    def test_periodic_mode(self, rng):
        schedules = build_schedules(["a", "b"], "periodic", 5.0, rng)
        for schedule in schedules.values():
            times = schedule.completions_between(0.0, 50.0)
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(gap == pytest.approx(5.0) for gap in gaps)

    def test_periodic_stagger_desynchronizes(self, rng):
        schedules = build_schedules(["a", "b"], "periodic", 5.0, rng)
        a = schedules["a"].next_completion_after(0.0)
        b = schedules["b"].next_completion_after(0.0)
        assert a != b

    def test_exponential_mode_independent_streams(self, rng):
        schedules = build_schedules(["a", "b"], "exponential", 5.0, rng)
        a = schedules["a"].completions_between(0.0, 100.0)
        b = schedules["b"].completions_between(0.0, 100.0)
        assert a != b

    def test_shared_mode_splits_budget(self, rng):
        schedules = build_schedules(["a", "b", "c", "d"], "shared", 1.0, rng)
        counts = {
            name: len(schedule.completions_between(0.0, 400.0))
            for name, schedule in schedules.items()
        }
        # System-wide ~400 events, ~100 per replica.
        assert sum(counts.values()) == pytest.approx(400, rel=0.25)
        for count in counts.values():
            assert count == pytest.approx(100, rel=0.4)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ConfigError):
            build_schedules(["a"], "warp", 1.0, rng)

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            build_schedules([], "periodic", 1.0, rng)
        with pytest.raises(ConfigError):
            build_schedules(["a"], "periodic", 0.0, rng)


class TestReplicationManager:
    def make(self, qos=None):
        sim = Simulator()
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=10))
        catalog.add_replica("a", FixedSyncSchedule([2.0, 4.0, 6.0]))
        manager = ReplicationManager(
            sim, catalog, qos_max_staleness=qos,
            tracer=Tracer(lambda: sim.now),
        )
        return sim, catalog, manager

    def test_sync_events_fire_on_schedule(self):
        sim, catalog, manager = self.make()
        manager.start()
        sim.run(until=7.0)
        seen = [
            record.detail["at"] for record in manager.tracer.records
            if record.kind == SYNC_APPLY
        ]
        assert seen == [2.0, 4.0, 6.0]
        assert catalog.replica("a").sync_count == 3
        assert manager.total_syncs == 3

    def test_staleness_statistics(self):
        sim, _catalog, manager = self.make()
        manager.start()
        sim.run(until=7.0)
        gaps = [
            record.detail["gap"] for record in manager.tracer.records
            if record.kind == SYNC_APPLY
        ]
        assert sum(gaps) / len(gaps) == pytest.approx(2.0)

    def test_qos_violations_counted(self):
        sim, _catalog, manager = self.make(qos=1.5)
        manager.start()
        sim.run(until=7.0)
        assert manager.qos_violations == 3  # every 2-minute gap exceeds 1.5

    def test_start_is_idempotent(self):
        sim, _catalog, manager = self.make()
        manager.start()
        manager.start()
        sim.run(until=3.0)
        assert manager.total_syncs == 1

    def test_qos_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            ReplicationManager(sim, Catalog(), qos_max_staleness=0.0)


def small_config(replicated, **overrides) -> SystemConfig:
    defaults = dict(
        tables=[
            TableSpec("a", site=0, row_count=2_000),
            TableSpec("b", site=1, row_count=4_000),
            TableSpec("c", site=0, row_count=1_000),
        ],
        replicated=replicated,
        sync_mode="periodic",
        sync_mean_interval=5.0,
        rates=DiscountRates(0.02, 0.02),
        seed=3,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestSystemConfig:
    def test_duplicate_tables_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                tables=[TableSpec("a", 0, 10), TableSpec("a", 0, 10)],
                replicated=[],
            )

    def test_unknown_replicated_rejected(self):
        with pytest.raises(ConfigError):
            small_config(replicated=["zz"])


class TestFederatedSystem:
    def test_end_to_end_outcome_accounting(self):
        system = build_system(small_config(["a", "b", "c"]), ivqp_router)
        query = DSSQuery(query_id=1, name="q", tables=("a", "b"))
        system.submit(query, at=10.0)
        system.run()
        assert len(system.outcomes) == 1
        outcome = system.outcomes[0]
        assert outcome.submitted_at == 10.0
        assert outcome.completed_at > 10.0
        assert outcome.computational_latency > 0
        assert 0.0 <= outcome.information_value <= 1.0
        assert system.mean_information_value == pytest.approx(
            outcome.information_value
        )

    def test_submit_in_past_rejected(self):
        system = build_system(small_config(["a"]), federation_router)
        system.submit(
            DSSQuery(query_id=1, name="q", tables=("a",)), at=5.0
        )
        system.run()
        with pytest.raises(ConfigError):
            system.submit(
                DSSQuery(query_id=2, name="q2", tables=("a",)), at=1.0
            )

    def test_workload_submission(self):
        system = build_system(small_config(["a", "b", "c"]), ivqp_router)
        workload = Workload()
        for index in range(3):
            workload.add(
                DSSQuery(query_id=index + 1, name=f"q{index}", tables=("a",)),
                arrival=float(index * 5 + 1),
            )
        system.submit_workload(workload)
        system.run()
        assert len(system.outcomes) == 3

    def test_contention_queues_on_local_server(self):
        config = small_config(["a", "b", "c"], local_capacity=1)
        system = build_system(config, warehouse_router)
        for index in range(3):
            system.submit(
                DSSQuery(
                    query_id=index + 1, name=f"q{index}",
                    tables=("a", "b", "c"), base_work=20_000.0,
                ),
                at=1.0,
            )
        system.run()
        completions = sorted(o.completed_at for o in system.outcomes)
        # Serialized on the single local server: distinct completion times.
        assert completions[1] - completions[0] > 1.0
        assert completions[2] - completions[1] > 1.0

    def test_remote_legs_run_in_parallel_across_sites(self):
        config = small_config([], remote_capacity=1)
        system = build_system(config, federation_router)
        query = DSSQuery(
            query_id=1, name="q", tables=("a", "b"), base_work=30_000.0
        )
        system.submit(query, at=1.0)
        system.run()
        outcome = system.outcomes[0]
        plan = outcome.plan
        legs = dict(plan.cost.site_legs)
        # Completion reflects max leg, not the sum.
        expected = 1.0 + plan.cost.processing + plan.cost.transmission
        assert outcome.completed_at == pytest.approx(expected)
        assert len(legs) == 2

    def test_replica_freshness_realized_from_catalog(self):
        config = small_config(["a", "b", "c"])
        system = build_system(config, warehouse_router)
        query = DSSQuery(query_id=1, name="q", tables=("a",))
        system.submit(query, at=12.0)
        system.run()
        outcome = system.outcomes[0]
        replica = system.catalog.replica("a")
        assert outcome.data_timestamp == replica.freshness_at(12.0)

    def test_sync_during_queue_wait_improves_freshness(self):
        """A replica refreshed while the query waits yields fresher data
        than the plan estimated."""
        config = small_config(["a", "b", "c"], local_capacity=1)
        system = build_system(config, warehouse_router)
        blocker = DSSQuery(
            query_id=1, name="blocker", tables=("b",), base_work=40_000.0
        )
        system.submit(blocker, at=4.0)
        probe = DSSQuery(query_id=2, name="probe", tables=("a",))
        system.submit(probe, at=4.5)
        system.run()
        probe_outcome = next(
            o for o in system.outcomes if o.query.name == "probe"
        )
        planned_freshness = probe_outcome.plan.oldest_freshness
        assert probe_outcome.data_timestamp >= planned_freshness

    def test_run_until_time(self):
        system = build_system(small_config(["a"]), federation_router)
        system.submit(DSSQuery(query_id=1, name="q", tables=("a",)), at=100.0)
        system.run(until=50.0)
        assert system.outcomes == []
        assert system.sim.now == 50.0


class TestRouters:
    def test_federation_router_all_remote(self):
        system = build_system(small_config(["a", "b", "c"]), federation_router)
        plan = system.router.choose_plan(
            DSSQuery(query_id=1, name="q", tables=("a", "b")), 0.0
        )
        assert plan.remote_tables == frozenset({"a", "b"})
        assert not plan.delayed

    def test_warehouse_router_all_replica(self):
        system = build_system(small_config(["a", "b", "c"]), warehouse_router)
        plan = system.router.choose_plan(
            DSSQuery(query_id=1, name="q", tables=("a", "b")), 0.0
        )
        assert plan.remote_tables == frozenset()
        assert not plan.delayed

    def test_warehouse_requires_full_replication(self):
        system = build_system(small_config(["a"]), warehouse_router)
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            system.router.choose_plan(
                DSSQuery(query_id=1, name="q", tables=("a", "b")), 0.0
            )

    def test_ivqp_router_dominates_baselines_per_plan(self):
        """IVQP's chosen plan estimate is at least as good as both
        baseline plans for the same query and instant."""
        config = small_config(["a", "b", "c"])
        ivqp_system = build_system(config, ivqp_router)
        query = DSSQuery(query_id=1, name="q", tables=("a", "b"))
        at = 7.0
        ivqp_plan = ivqp_system.router.choose_plan(query, at)

        fed = federation_router(
            ivqp_system.catalog, ivqp_system.cost_model, config.rates
        ).choose_plan(query, at)
        wh = warehouse_router(
            ivqp_system.catalog, ivqp_system.cost_model, config.rates
        ).choose_plan(query, at)
        assert ivqp_plan.information_value >= fed.information_value - 1e-12
        assert ivqp_plan.information_value >= wh.information_value - 1e-12
