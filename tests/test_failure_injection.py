"""Failure-injection and extreme-parameter tests.

The system must stay correct (not merely fast) when replicas go quiet,
servers saturate, discounts are brutal, or workloads degenerate.
"""

from __future__ import annotations

import pytest

from repro.baselines import federation_router, ivqp_router, warehouse_router
from repro.core.value import DiscountRates
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.system import SystemConfig, TableSpec, build_system
from repro.mqo.scheduler import WorkloadScheduler
from repro.workload.query import DSSQuery, Workload


class TestDeadReplicas:
    """A replica whose next sync is effectively never."""

    def make_catalog(self):
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=5_000))
        catalog.add_table(TableDef("b", site=1, row_count=5_000))
        # Synced once at t=1, then silence for ~forever.
        catalog.add_replica("a", FixedSyncSchedule([1.0], tail_period=1e6))
        catalog.add_replica("b", FixedSyncSchedule([1.0], tail_period=1e6))
        return catalog

    def test_ivqp_abandons_dead_replicas(self):
        from repro.core.optimizer import IVQPOptimizer

        catalog = self.make_catalog()
        model = CostModel(catalog)
        rates = DiscountRates(computational=0.01, synchronization=0.2)
        optimizer = IVQPOptimizer(catalog, model, rates)
        query = DSSQuery(query_id=1, name="q", tables=("a", "b"))
        plan = optimizer.choose_plan(query, submitted_at=500.0)
        assert plan.remote_tables == frozenset({"a", "b"})
        assert not plan.delayed

    def test_warehouse_still_answers_with_ancient_data(self):
        catalog = self.make_catalog()
        model = CostModel(catalog)
        rates = DiscountRates(0.01, 0.05)
        router = warehouse_router(catalog, model, rates)
        plan = router.choose_plan(
            DSSQuery(query_id=1, name="q", tables=("a",)), 500.0
        )
        assert plan.synchronization_latency > 400.0
        assert plan.information_value < 1e-6  # honestly worthless


class TestSaturation:
    def test_single_server_absorbs_a_simultaneous_storm(self):
        config = SystemConfig(
            tables=[TableSpec("a", site=0, row_count=10_000)],
            replicated=["a"],
            sync_mode="periodic",
            sync_mean_interval=2.0,
            rates=DiscountRates(0.05, 0.05),
            local_capacity=1,
            seed=1,
        )
        system = build_system(config, warehouse_router)
        for index in range(25):
            system.submit(
                DSSQuery(query_id=index + 1, name=f"q{index}", tables=("a",)),
                at=1.0,  # all at the same instant
            )
        system.run()
        assert len(system.outcomes) == 25
        completions = [outcome.completed_at for outcome in system.outcomes]
        assert completions == sorted(completions)
        # The last query waited for the 24 before it.
        assert system.outcomes[-1].computational_latency > (
            20 * system.outcomes[0].computational_latency
        )

    def test_realized_iv_degrades_under_contention_but_stays_valid(self):
        config = SystemConfig(
            tables=[TableSpec("a", site=0, row_count=50_000)],
            replicated=[],
            rates=DiscountRates(0.1, 0.1),
            remote_capacity=1,
            seed=1,
        )
        system = build_system(config, federation_router)
        for index in range(10):
            system.submit(
                DSSQuery(query_id=index + 1, name=f"q{index}", tables=("a",)),
                at=1.0,
            )
        system.run()
        values = [outcome.information_value for outcome in system.outcomes]
        assert all(0.0 <= value <= 1.0 for value in values)
        assert min(values) < max(values)  # later arrivals decayed


class TestExtremeDiscounts:
    def test_near_total_decay_still_produces_finite_plans(self):
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=1_000))
        catalog.add_replica("a", FixedSyncSchedule([1.0], tail_period=2.0))
        model = CostModel(catalog)
        rates = DiscountRates(0.99, 0.99)
        from repro.core.optimizer import IVQPOptimizer

        plan = IVQPOptimizer(catalog, model, rates).choose_plan(
            DSSQuery(query_id=1, name="q", tables=("a",)), 10.0
        )
        assert 0.0 <= plan.information_value < 1e-3

    def test_zero_discounts_mean_full_value_always(self):
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=1_000))
        model = CostModel(catalog)
        rates = DiscountRates(0.0, 0.0)
        from repro.core.optimizer import IVQPOptimizer

        plan = IVQPOptimizer(catalog, model, rates).choose_plan(
            DSSQuery(query_id=1, name="q", tables=("a",)), 10.0
        )
        assert plan.information_value == pytest.approx(1.0)


class TestDegenerateWorkloads:
    def test_single_query_workload_schedules(self):
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=1_000))
        catalog.add_replica("a", FixedSyncSchedule([1.0], tail_period=3.0))
        scheduler = WorkloadScheduler(
            catalog, CostModel(catalog), DiscountRates(0.05, 0.05)
        )
        workload = Workload()
        workload.add(DSSQuery(query_id=1, name="solo", tables=("a",)), 2.0)
        decision = scheduler.schedule(workload)
        assert decision.permutation == [1]
        assert decision.stats.ga_runs == 0
        assert [window.groups for window in decision.windows] == [1]

    def test_identical_queries_burst(self):
        catalog = Catalog()
        catalog.add_table(TableDef("a", site=0, row_count=20_000))
        catalog.add_replica("a", FixedSyncSchedule([1.0], tail_period=2.0))
        scheduler = WorkloadScheduler(
            catalog,
            CostModel(catalog, params=CostParameters(local_throughput=2_000.0)),
            DiscountRates(0.15, 0.15),
        )
        workload = Workload()
        for index in range(6):
            workload.add(
                DSSQuery(query_id=index + 1, name=f"same{index}",
                         tables=("a",)),
                arrival=1.0,
            )
        mqo = scheduler.schedule(workload)
        fifo = scheduler.fifo(workload)
        # Identical queries: ordering cannot help, but must not hurt.
        assert mqo.total_information_value == pytest.approx(
            fifo.total_information_value, rel=0.05
        )

    def test_zero_row_table(self):
        config = SystemConfig(
            tables=[TableSpec("empty", site=0, row_count=0)],
            replicated=[],
            rates=DiscountRates(0.01, 0.01),
        )
        system = build_system(config, federation_router)
        system.submit(DSSQuery(query_id=1, name="q", tables=("empty",)), at=1.0)
        system.run()
        assert system.outcomes[0].information_value > 0.9


class TestIvqpNeverWorseThanBaselines:
    """IVQP's estimate dominates both baselines under arbitrary states."""

    @pytest.mark.parametrize("submit", [3.0, 7.5, 19.0, 42.0])
    def test_dominance_at_various_instants(self, submit):
        catalog = Catalog()
        for index, name in enumerate(("x", "y", "z")):
            catalog.add_table(TableDef(name, site=index, row_count=4_000))
            catalog.add_replica(
                name, FixedSyncSchedule([2.0 + index], tail_period=6.0 + index)
            )
        model = CostModel(catalog)
        rates = DiscountRates(0.04, 0.08)
        query = DSSQuery(query_id=1, name="q", tables=("x", "y", "z"))
        ivqp = ivqp_router(catalog, model, rates).choose_plan(query, submit)
        fed = federation_router(catalog, model, rates).choose_plan(query, submit)
        wh = warehouse_router(catalog, model, rates).choose_plan(query, submit)
        assert ivqp.information_value >= fed.information_value - 1e-12
        assert ivqp.information_value >= wh.information_value - 1e-12
