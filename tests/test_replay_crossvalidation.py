"""Cross-validation: the analytic MQO evaluator vs the discrete-event run.

The MQO evaluator replays schedules against per-server availability clocks;
the DES executes the same plans with real queueing.  The evaluator's model
is deliberately *conservative* (it holds all of a plan's servers from one
common begin instant, where the DES pipelines remote legs before local
assembly), so replaying an evaluator schedule in the DES must never come
out slower per query — and realized information values must never come out
lower.
"""

from __future__ import annotations

import pytest

from repro.baselines import ReplayRouter
from repro.core.value import DiscountRates
from repro.errors import PlanError
from repro.federation.catalog import Catalog, StreamSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.federation.system import ReplicationManager
from repro.federation.system import FederatedSystem
from repro.mqo.scheduler import WorkloadScheduler
from repro.sim.scheduler import Simulator
from repro.workload.query import DSSQuery, Workload


def build_shared_world():
    """A catalog + cost model shared by the analytic and DES paths."""
    catalog = Catalog()
    for index in range(4):
        name = f"t{index}"
        catalog.add_table(TableDef(name, site=index % 2, row_count=4_000))
        catalog.add_replica(
            name,
            StreamSyncSchedule.periodic(6.0, offset=1.0 + index * 1.3),
        )
    cost_model = CostModel(
        catalog,
        params=CostParameters(local_throughput=2_000.0,
                              remote_throughput=800.0),
    )
    rates = DiscountRates.symmetric(0.1)
    return catalog, cost_model, rates


def build_burst() -> Workload:
    workload = Workload()
    for index in range(5):
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}",
                tables=(f"t{index % 4}", f"t{(index + 1) % 4}"),
            ),
            arrival=2.0 + 0.3 * index,
        )
    return workload


def run_in_des(catalog, cost_model, rates, workload, assignments):
    """Execute recorded assignments inside a fresh simulation."""
    sim = Simulator()
    sites = {LOCAL_SITE_ID: Site(sim, LOCAL_SITE_ID, capacity=1)}
    for site_id in {table.site for table in
                    (catalog.table(n) for n in catalog.table_names)}:
        sites[site_id] = Site(sim, site_id, capacity=1)
    system = FederatedSystem(
        sim=sim,
        catalog=catalog,
        sites=sites,
        cost_model=cost_model,
        router=ReplayRouter.from_assignments(assignments),
        replication=ReplicationManager(sim, catalog),
        rates=rates,
    )
    system.submit_workload(workload)
    system.run()
    return {outcome.query.query_id: outcome for outcome in system.outcomes}


class TestCrossValidation:
    def test_des_never_slower_than_analytic_model(self):
        catalog, cost_model, rates, = build_shared_world()
        workload = build_burst()
        scheduler = WorkloadScheduler(catalog, cost_model, rates)
        analytic = scheduler.fifo(workload)

        outcomes = run_in_des(
            catalog, cost_model, rates, workload, analytic.assignments
        )
        for assignment in analytic.assignments:
            outcome = outcomes[assignment.query.query_id]
            assert outcome.computational_latency <= (
                assignment.computational_latency + 1e-6
            ), assignment.query.name
            assert outcome.information_value >= (
                assignment.information_value - 1e-6
            ), assignment.query.name

    def test_uncontended_query_matches_exactly(self):
        catalog, cost_model, rates = build_shared_world()
        workload = Workload()
        workload.add(
            DSSQuery(query_id=1, name="solo", tables=("t0", "t1")),
            arrival=10.0,
        )
        scheduler = WorkloadScheduler(catalog, cost_model, rates)
        analytic = scheduler.fifo(workload)
        outcomes = run_in_des(
            catalog, cost_model, rates, workload, analytic.assignments
        )
        assignment = analytic.assignments[0]
        outcome = outcomes[1]
        assert outcome.computational_latency == pytest.approx(
            assignment.computational_latency, abs=1e-9
        )
        assert outcome.information_value == pytest.approx(
            assignment.information_value, abs=1e-9
        )


class TestReplayRouter:
    def test_missing_plan_rejected(self, fig4_world):
        _catalog, _provider, query, _rates = fig4_world
        router = ReplayRouter({})
        with pytest.raises(PlanError):
            router.choose_plan(query, 0.0)

    def test_plan_for_wrong_query_object_rejected(self, fig4_world):
        catalog, provider, query, rates = fig4_world
        from repro.core.enumeration import make_plan

        plan = make_plan(
            query, catalog, provider, rates, 11.0, 11.0,
            frozenset(query.tables),
        )
        impostor = DSSQuery(query_id=1, name="fig4",
                            tables=("T1", "T2", "T3", "T4"))
        with pytest.raises(PlanError):
            ReplayRouter({impostor: plan})

    def test_late_submission_rejected(self, fig4_world):
        catalog, provider, query, rates = fig4_world
        from repro.core.enumeration import make_plan

        plan = make_plan(
            query, catalog, provider, rates, 11.0, 11.0,
            frozenset(query.tables),
        )
        router = ReplayRouter({query: plan})
        assert router.choose_plan(query, 11.0) is plan
        with pytest.raises(PlanError):
            router.choose_plan(query, 50.0)
