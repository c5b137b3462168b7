"""Integration: MQO scheduling realized inside the DES via the system's
replaying router."""

from __future__ import annotations

import pytest

from repro.baselines import ivqp_router
from repro.core.value import DiscountRates
from repro.federation.costmodel import CostParameters
from repro.federation.system import SystemConfig, TableSpec, build_system
from repro.mqo.ga import GAConfig
from repro.mqo.scheduler import WorkloadScheduler
from repro.workload.query import DSSQuery, Workload


def submit_workload_mqo(system, workload, ga_config=None, seed: int = 0):
    """Schedule ``workload`` with batch MQO against the system's own
    catalog and cost model, then submit it to replay the decided plans;
    returns the analytic decision."""
    scheduler = WorkloadScheduler(
        system.catalog, system.cost_model, system.rates,
        ga_config=ga_config, seed=seed, tracer=system.tracer,
    )
    decision = scheduler.schedule(workload)
    system._replay(workload, decision)
    return decision


def build_config() -> SystemConfig:
    return SystemConfig(
        tables=[
            TableSpec("a", site=0, row_count=8_000),
            TableSpec("b", site=1, row_count=8_000),
            TableSpec("c", site=0, row_count=4_000),
        ],
        replicated=["a", "b", "c"],
        sync_mode="periodic",
        sync_mean_interval=5.0,
        rates=DiscountRates.symmetric(0.12),
        cost_params=CostParameters(
            local_throughput=2_000.0, remote_throughput=800.0
        ),
        local_capacity=1,
        seed=4,
    )


def build_burst() -> Workload:
    workload = Workload()
    for index in range(5):
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}",
                tables=("a", "b") if index % 2 else ("b", "c"),
            ),
            arrival=2.0 + 0.2 * index,
        )
    return workload


class TestSubmitWorkloadMqo:
    def test_decision_realizes_in_simulation(self):
        system = build_system(build_config(), ivqp_router)
        decision = submit_workload_mqo(
            system, build_burst(), ga_config=GAConfig(generations=10), seed=1
        )
        system.run()
        assert len(system.outcomes) == 5
        # Realized IVs must not fall below the analytic (conservative) plan.
        analytic = {
            a.query.query_id: a.information_value
            for a in decision.result.assignments
        }
        for outcome in system.outcomes:
            assert outcome.information_value >= (
                analytic[outcome.query.query_id] - 1e-6
            )

    def test_mqo_realization_beats_naive_submission(self):
        """The full loop: MQO-in-DES vs FIFO-in-DES on the same burst."""
        naive = build_system(build_config(), ivqp_router)
        naive.submit_workload(build_burst())
        naive.run()

        scheduled = build_system(build_config(), ivqp_router)
        submit_workload_mqo(
            scheduled, build_burst(), ga_config=GAConfig(generations=15),
            seed=1,
        )
        scheduled.run()

        naive_total = sum(o.information_value for o in naive.outcomes)
        mqo_total = sum(o.information_value for o in scheduled.outcomes)
        assert mqo_total >= naive_total - 1e-6

    def test_decision_groups_cover_workload(self):
        system = build_system(build_config(), ivqp_router)
        decision = submit_workload_mqo(system, build_burst())
        assert sorted(decision.permutation) == [1, 2, 3, 4, 5]
        assert decision.shed == []
        system.run()
        assert len(system.outcomes) == 5
