"""Unit tests: conflict detection, workload evaluation and MQO scheduling."""

from __future__ import annotations

import pytest

from repro.core.aging import AgingPolicy
from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.conflict import ExecutionRange
from repro.mqo.evaluator import WorkloadEvaluator
from repro.mqo.ga import GAConfig
from repro.mqo.scheduler import WorkloadScheduler
from repro.workload.query import DSSQuery, Workload

from tests.mqo_batch_oracle import (
    conflict_groups,
    execution_ranges,
    ranges_overlap,
)


def build_catalog(num_tables=6, num_sites=3) -> Catalog:
    catalog = Catalog()
    for index in range(num_tables):
        name = f"t{index}"
        catalog.add_table(
            TableDef(name, site=index % num_sites, row_count=3_000)
        )
        catalog.add_replica(
            name,
            FixedSyncSchedule(
                [1.0 + index * 0.5 + k * 6.0 for k in range(30)],
                tail_period=6.0,
            ),
        )
    return catalog


def build_stack(rates=None, params=None):
    catalog = build_catalog()
    cost_model = CostModel(catalog, params=params or CostParameters())
    rates = rates or DiscountRates.symmetric(0.1)
    scheduler = WorkloadScheduler(
        catalog, cost_model, rates, ga_config=GAConfig(generations=15), seed=1
    )
    return catalog, cost_model, rates, scheduler


def burst_workload(count=4, gap=0.2, tables_per_query=3) -> Workload:
    workload = Workload()
    for index in range(count):
        tables = tuple(f"t{(index + j) % 6}" for j in range(tables_per_query))
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                base_work=8_000.0,
            ),
            arrival=1.0 + gap * index,
        )
    return workload


def spread_workload(count=3, gap=500.0) -> Workload:
    workload = Workload()
    for index in range(count):
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}",
                tables=(f"t{index % 6}",), base_work=2_000.0,
            ),
            arrival=1.0 + gap * index,
        )
    return workload


class TestExecutionRanges:
    def test_overlap_detection(self):
        a = ExecutionRange(1, 0.0, 10.0)
        b = ExecutionRange(2, 5.0, 15.0)
        c = ExecutionRange(3, 11.0, 20.0)
        assert ranges_overlap(a, b)
        assert ranges_overlap(b, a)
        assert not ranges_overlap(a, c)

    def test_touching_ranges_do_not_overlap(self):
        # Half-open [start, end) semantics: a range ending at t and a
        # range starting at t share no positive-length interval.  The old
        # closed comparison (<=) treated them as conflicting.
        a = ExecutionRange(1, 0.0, 5.0)
        b = ExecutionRange(2, 5.0, 9.0)
        assert not ranges_overlap(a, b)
        assert not ranges_overlap(b, a)

    def test_point_adjacent_ranges_overlap_when_interior_shared(self):
        a = ExecutionRange(1, 0.0, 5.0)
        b = ExecutionRange(2, 5.0 - 1e-9, 9.0)
        assert ranges_overlap(a, b)

    def test_range_overlaps_itself(self):
        a = ExecutionRange(1, 2.0, 4.0)
        assert ranges_overlap(a, a)

    def test_ranges_start_at_arrival(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        for rng in execution_ranges(evaluator):
            assert rng.start == workload.arrival_of(rng.query_id)
            assert rng.end > rng.start


class TestConflictGroups:
    def test_burst_forms_one_group(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        groups = conflict_groups(execution_ranges(evaluator))
        assert len(groups) == 1
        assert sorted(groups[0]) == [1, 2, 3, 4]

    def test_spread_queries_form_singletons(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = spread_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        groups = conflict_groups(execution_ranges(evaluator))
        assert all(len(group) == 1 for group in groups)
        assert len(groups) == 3

    def test_sweep_merges_chains(self):
        ranges = [
            ExecutionRange(1, 0.0, 5.0),
            ExecutionRange(2, 4.0, 9.0),
            ExecutionRange(3, 8.0, 12.0),  # overlaps 2, not 1 -> same chain
            ExecutionRange(4, 50.0, 55.0),
        ]
        groups = conflict_groups(ranges)
        assert sorted(map(sorted, groups)) == [[1, 2, 3], [4]]

    def test_touching_ranges_open_new_group(self):
        # Consistent with half-open overlaps: [0,5) and [5,9) never
        # contend, so the sweep must not merge them into one workload.
        ranges = [
            ExecutionRange(1, 0.0, 5.0),
            ExecutionRange(2, 5.0, 9.0),
            ExecutionRange(3, 9.0, 12.0),
        ]
        groups = conflict_groups(ranges)
        assert sorted(map(sorted, groups)) == [[1], [2], [3]]


class TestWorkloadEvaluator:
    def test_permutation_must_cover_workload(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        with pytest.raises(OptimizationError):
            evaluator.evaluate([1, 2])
        with pytest.raises(OptimizationError):
            evaluator.evaluate([1, 2, 3, 3])

    def test_contention_shows_up_in_later_queries(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        result = evaluator.evaluate([1, 2, 3, 4])
        begins = [a.begin for a in result.assignments]
        assert begins == sorted(begins)
        assert result.assignments[-1].begin > workload.arrival_of(4)

    def test_candidates_sorted_by_estimated_iv(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        plans = evaluator.candidates(workload.query(1))
        values = [plan.information_value for plan in plans]
        assert values == sorted(values, reverse=True)

    def test_total_is_sum_of_assignments(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        result = evaluator.evaluate([4, 3, 2, 1])
        assert result.total_information_value == pytest.approx(
            sum(a.information_value for a in result.assignments)
        )
        assert result.mean_information_value == pytest.approx(
            result.total_information_value / 4
        )

    def test_evaluation_is_deterministic(self):
        catalog, cost_model, rates, _sched = build_stack()
        workload = burst_workload()
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        first = evaluator.evaluate([2, 1, 4, 3]).total_information_value
        second = evaluator.evaluate([2, 1, 4, 3]).total_information_value
        assert first == second


class TestWorkloadScheduler:
    def test_mqo_at_least_matches_fifo(self):
        _catalog, _cm, _rates, scheduler = build_stack(
            rates=DiscountRates.symmetric(0.15)
        )
        workload = burst_workload(count=5)
        mqo = scheduler.schedule(workload)
        fifo = scheduler.fifo(workload)
        assert (
            mqo.total_information_value
            >= fifo.total_information_value - 1e-9
        )

    def test_mqo_improves_under_heavy_contention(self):
        _catalog, _cm, _rates, scheduler = build_stack(
            rates=DiscountRates.symmetric(0.15),
            params=CostParameters(
                local_throughput=1_000.0, remote_throughput=400.0
            ),
        )
        workload = burst_workload(count=6, gap=0.1)
        mqo = scheduler.schedule(workload)
        fifo = scheduler.fifo(workload)
        assert mqo.total_information_value > fifo.total_information_value

    def test_spread_workload_needs_no_ga(self):
        _catalog, _cm, _rates, scheduler = build_stack()
        decision = scheduler.schedule(spread_workload())
        assert decision.stats.ga_runs == 0
        [window] = decision.windows
        assert window.groups == 3  # one group per query

    def test_permutation_covers_all_queries(self):
        _catalog, _cm, _rates, scheduler = build_stack()
        workload = burst_workload(count=5)
        decision = scheduler.schedule(workload)
        assert sorted(decision.permutation) == [1, 2, 3, 4, 5]

    def test_empty_workload_rejected(self):
        _catalog, _cm, _rates, scheduler = build_stack()
        with pytest.raises(OptimizationError):
            scheduler.schedule(Workload())
        with pytest.raises(OptimizationError):
            scheduler.fifo(Workload())
        with pytest.raises(OptimizationError):
            scheduler.greedy_dispatch(Workload())

    def test_greedy_dispatch_schedules_everyone_once(self):
        _catalog, _cm, _rates, scheduler = build_stack()
        workload = burst_workload(count=5)
        result = scheduler.greedy_dispatch(workload)
        names = sorted(a.query.name for a in result.assignments)
        assert names == [f"q{i}" for i in range(1, 6)]

    def test_aging_must_outpace_discounts(self):
        _catalog, _cm, _rates, scheduler = build_stack(
            rates=DiscountRates.symmetric(0.3)
        )
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            scheduler.greedy_dispatch(
                burst_workload(), aging=AgingPolicy(beta=0.1)
            )

    def test_dispatch_clock_waits_for_transmission(self):
        """Regression: the dispatcher's clock must advance to ``completed``.

        The old code advanced it to ``begin + processing``, deciding the
        next dispatch while the previous query's result transmission was
        still in flight — so a high-value query arriving during the
        transmission window never got to compete.  With a slow network
        (2 MB result over 200 kB/min ≈ 10 minutes of transmission), q1
        occupies [0, ~4] processing + ~10 transmission; q2 (BV 1) arrives
        at 5 and q3 (BV 3) at 8, both inside the in-flight window.  The
        fixed clock sees both at q1's completion and dispatches q3 first;
        the buggy clock dispatched q2 alone at t=5.
        """
        from repro.federation.network import NetworkModel

        catalog = build_catalog()
        cost_model = CostModel(
            catalog, network=NetworkModel(bandwidth=200_000.0)
        )
        rates = DiscountRates.symmetric(0.05)
        scheduler = WorkloadScheduler(
            catalog, cost_model, rates, ga_config=GAConfig(generations=5),
            seed=1,
        )
        workload = Workload()
        workload.add(
            DSSQuery(query_id=1, name="q1", tables=("t0",), base_work=20_000.0),
            arrival=0.0,
        )
        workload.add(
            DSSQuery(query_id=2, name="q2", tables=("t1",), base_work=2_000.0,
                     business_value=1.0),
            arrival=5.0,
        )
        workload.add(
            DSSQuery(query_id=3, name="q3", tables=("t2",), base_work=2_000.0,
                     business_value=3.0),
            arrival=8.0,
        )
        result = scheduler.greedy_dispatch(workload)
        first = result.assignments[0]
        assert first.completed - first.begin - first.plan.cost.processing > 5.0
        assert [a.query.query_id for a in result.assignments] == [1, 3, 2]

    def test_aging_rescues_starving_query(self):
        """One big query + stream of small ones: aging bounds its wait."""
        catalog = build_catalog()
        cost_model = CostModel(
            catalog,
            params=CostParameters(
                local_throughput=2_000.0, remote_throughput=800.0
            ),
        )
        rates = DiscountRates.symmetric(0.15)
        scheduler = WorkloadScheduler(catalog, cost_model, rates, seed=2)
        workload = Workload()
        workload.add(
            DSSQuery(query_id=1, name="big", tables=tuple(f"t{i}" for i in range(6)),
                     base_work=30_000.0),
            arrival=0.5,
        )
        for index in range(20):
            workload.add(
                DSSQuery(
                    query_id=index + 2, name=f"small{index}",
                    tables=(f"t{index % 6}",), base_work=1_500.0,
                ),
                arrival=0.5 + 0.5 * index,
            )

        def big_wait(result):
            big = next(a for a in result.assignments if a.query.name == "big")
            return big.begin - big.arrival

        plain = scheduler.greedy_dispatch(workload, aging=None)
        aged = scheduler.greedy_dispatch(
            workload, aging=AgingPolicy(beta=0.4)
        )
        assert big_wait(aged) < big_wait(plain)
