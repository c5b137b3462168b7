"""Fast-path equivalence and bookkeeping of the workload evaluator.

The layered fast path (compiled plans, upper-bound pruning) must be
invisible: bit-identical assignments and totals to the naive replay
(``tests/mqo_naive_oracle.py``) on every workload and permutation.  These
tests drive randomized workloads through both and poke at the counters.
"""

from __future__ import annotations

from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.site import LOCAL_SITE_ID
from repro.mqo import evaluator as evaluator_module
from repro.mqo.evaluator import WorkloadEvaluator
from repro.workload.query import DSSQuery, Workload

from tests.mqo_naive_oracle import best_naive, evaluate_naive

NUM_TABLES = 8
NUM_SITES = 3


def build_catalog(
    first_sync: float = 1.0, initial_timestamp: float = 0.0
) -> Catalog:
    catalog = Catalog()
    for index in range(NUM_TABLES):
        name = f"t{index}"
        catalog.add_table(
            TableDef(name, site=index % NUM_SITES, row_count=3_000)
        )
        catalog.add_replica(
            name,
            FixedSyncSchedule(
                [first_sync + index * 0.5 + k * 6.0 for k in range(30)],
                tail_period=6.0,
            ),
            initial_timestamp=initial_timestamp,
        )
    return catalog


def build_workload(
    query_specs: list[tuple[int, float, float]],
) -> Workload:
    """Queries from (table_offset, arrival, base_work) triples."""
    workload = Workload()
    for index, (offset, arrival, work) in enumerate(query_specs):
        tables = tuple(
            f"t{(offset + j) % NUM_TABLES}" for j in range(1 + offset % 3)
        )
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                base_work=work,
            ),
            arrival=arrival,
        )
    return workload


def build_evaluator(
    workload: Workload, catalog: Catalog | None = None, **kwargs
) -> WorkloadEvaluator:
    catalog = catalog or build_catalog()
    cost_model = CostModel(catalog, params=CostParameters())
    rates = DiscountRates.symmetric(0.1)
    return WorkloadEvaluator(catalog, cost_model, rates, workload, **kwargs)


def assert_same_assignment(fast, naive) -> None:
    assert fast.plan is naive.plan
    assert fast.begin == naive.begin
    assert fast.completed == naive.completed
    assert fast.data_timestamp == naive.data_timestamp
    assert fast.information_value == naive.information_value


def assert_same_result(fast, naive) -> None:
    for a, b in zip(fast.assignments, naive.assignments, strict=True):
        assert_same_assignment(a, b)
    assert fast.total_information_value == naive.total_information_value


def assert_identical(evaluator: WorkloadEvaluator, perm: list[int]) -> None:
    assert_same_result(
        evaluator.evaluate(list(perm)), evaluate_naive(evaluator, list(perm))
    )


query_spec = st.tuples(
    st.integers(min_value=0, max_value=NUM_TABLES - 1),
    st.floats(min_value=0.0, max_value=30.0),
    st.floats(min_value=1_000.0, max_value=20_000.0),
)


class TestFastPathEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        specs=st.lists(query_spec, min_size=2, max_size=6),
        data=st.data(),
    )
    def test_random_workloads_and_permutations(self, specs, data):
        workload = build_workload(specs)
        evaluator = build_evaluator(workload)
        qids = [q.query_id for q in workload.queries]
        for _ in range(4):
            perm = data.draw(st.permutations(qids))
            assert_identical(evaluator, list(perm))

    def test_repeated_ids_rejected(self):
        workload = build_workload([(0, 1.0, 8_000.0), (1, 1.1, 8_000.0)])
        evaluator = build_evaluator(workload)
        with pytest.raises(OptimizationError):
            evaluator.evaluate_sequence([1, 1])
        with pytest.raises(OptimizationError):
            evaluate_naive(evaluator, [2, 2])


site_clock = st.floats(min_value=0.0, max_value=40.0)
#: One step of a scoring session: score a partial order, re-root on new
#: committed server state, or evict a query's candidate records.
session_step = st.one_of(
    st.tuples(st.just("score"), st.randoms(use_true_random=False)),
    st.tuples(
        st.just("rebase"),
        st.dictionaries(
            st.sampled_from([LOCAL_SITE_ID, *range(NUM_SITES)]), site_clock
        ),
    ),
    st.tuples(st.just("evict"), st.integers(min_value=0, max_value=5)),
)


class _EveryQueryInOrder:
    """A "drawn" ``Random`` for an ``@example``: the whole workload, as listed."""

    def randint(self, low: int, high: int) -> int:
        return high

    def sample(self, population: list[int], k: int) -> list[int]:
        return list(population[:k])


class TestFitnessIsTheResultsTotal:
    """``sequence_fitness`` returns the walk's running total and builds
    nothing; it must equal the realized result's total with ``==``."""

    # Every query scored from a rebased, busy local server: the walk must
    # start from the committed clocks, not from idle servers.
    @example(
        specs=[(0, 1.0, 8_000.0), (0, 1.1, 8_000.0),
               (0, 1.2, 8_000.0), (0, 1.3, 8_000.0)],
        steps=[("rebase", {LOCAL_SITE_ID: 40.0}),
               ("score", _EveryQueryInOrder())],
    )
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(query_spec, min_size=2, max_size=6),
        steps=st.lists(session_step, min_size=1, max_size=12),
    )
    def test_over_random_orders_rebases_and_evictions(self, specs, steps):
        workload = build_workload(specs)
        evaluator = build_evaluator(workload)
        qids = [q.query_id for q in workload.queries]
        for kind, argument in steps:
            if kind == "rebase":
                evaluator.rebase(argument)
                continue
            if kind == "evict":
                evaluator.evict(qids[argument % len(qids)])
                continue
            order = argument.sample(qids, argument.randint(0, len(qids)))
            # Scored, realized, scored again, then the catalog-walking
            # reference: four routes to one total.
            fitness = evaluator.sequence_fitness(order)
            result = evaluator.evaluate_sequence(order)
            assert fitness == result.total_information_value
            assert fitness == evaluator.sequence_fitness(order)
            naive = evaluate_naive(evaluator, order)
            assert fitness == naive.total_information_value
            assert [a.query.query_id for a in result.assignments] == order

    def test_scoring_builds_no_assignment(self, monkeypatch):
        workload = build_workload(
            [(0, 1.0, 8_000.0), (1, 1.2, 8_000.0), (2, 1.4, 8_000.0)]
        )
        evaluator = build_evaluator(workload)
        built = []

        class Counting(evaluator_module.Assignment):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(evaluator_module, "Assignment", Counting)
        total = evaluator.sequence_fitness([1, 2, 3])
        assert evaluator.sequence_fitness([2, 1, 3]) > 0
        assert built == []
        assert evaluator.evaluate_sequence([1, 2, 3]).total_information_value == total
        assert len(built) == 3  # one per position, only when a result is asked for

    def test_total_is_a_plain_left_to_right_sum(self):
        # Built-in sum() is compensated from Python 3.12 on; the total
        # must not depend on the interpreter.
        workload = build_workload(
            [(index, 1.0 + 0.1 * index, 3_000.0 + 700.0 * index)
             for index in range(6)]
        )
        result = build_evaluator(workload).evaluate([1, 2, 3, 4, 5, 6])
        expected = 0.0
        for assignment in result.assignments:
            expected += assignment.information_value
        assert result.total_information_value.hex() == expected.hex()


def decay_prunes(
    evaluator: WorkloadEvaluator, query_id: int, free_at: dict[int, float]
) -> int:
    """Candidates under ``free_at`` that their static bounds admit but
    their bounds decayed by the wait behind the local clock prune."""
    compiled = evaluator._compiled_query(query_id)
    local = free_at.get(LOCAL_SITE_ID, 0.0)
    comp_base = compiled.shape.comp_base
    slack = evaluator_module._BOUND_SLACK
    best = -inf
    pruned = 0
    for candidate in compiled.candidates:
        suffix_bound, bound, start = candidate[:3]
        if suffix_bound < best:
            break
        if bound < best:
            continue
        decayed = bound * comp_base ** (local - start) * slack
        if local > start and decayed < best:
            pruned += 1
            continue
        realized = evaluator._realize(compiled, candidate, free_at)
        best = max(best, realized.information_value)
    return pruned


class TestScanEdgeBranches:
    """The one candidate scan against the naive oracle on branches random
    workloads reach rarely: ``choose_best`` and ``evaluate_sequence`` from
    the same clocks, with every clock near zero and shifted by ``origin``
    minutes (catalog syncs, arrivals and server clocks alike)."""

    def check(self, evaluator, free_at):
        expected = best_naive(evaluator, 1, free_at)
        chosen = evaluator.choose_best(1, free_at)
        evaluator.rebase(free_at)
        order = [query.query_id for query in evaluator.workload.queries]
        result = evaluator.evaluate_sequence(order)
        for fast in (chosen, result.assignments[0]):
            assert_same_assignment(fast, expected)
        assert_same_result(result, evaluate_naive(evaluator, order))
        return expected

    @pytest.mark.parametrize("origin", [65_536, 0])
    def test_bound_decayed_by_the_local_wait_prunes(self, origin):
        workload = build_workload(
            [(1, origin + 1.0, 8_000.0), (2, origin + 1.1, 2_000.0)]
        )
        evaluator = build_evaluator(
            workload, catalog=build_catalog(first_sync=origin + 1.0,
                                            initial_timestamp=origin)
        )
        free_at = {LOCAL_SITE_ID: origin + 5.0}
        assert decay_prunes(evaluator, 1, free_at) > 0
        self.check(evaluator, free_at)

    @pytest.mark.parametrize("origin", [65_536, 0])
    def test_begin_waits_on_a_remote_slot(self, origin):
        workload = build_workload(
            [(1, origin + 5.6, 2_000.0), (4, origin + 5.7, 2_000.0)]
        )
        evaluator = build_evaluator(
            workload, catalog=build_catalog(first_sync=origin + 1.0,
                                            initial_timestamp=origin)
        )
        expected = self.check(evaluator, {1: origin + 6.1})
        assert 1 in expected.plan.cost.remote_sites
        assert expected.plan.start_time < expected.begin == origin + 6.1

    @pytest.mark.parametrize("origin", [65_536, 0])
    def test_pure_replica_data_stamped_after_begin(self, origin):
        workload = build_workload(
            [(0, origin + 1.0, 2_000.0), (3, origin + 1.2, 2_000.0)]
        )
        evaluator = build_evaluator(
            workload,
            catalog=build_catalog(
                first_sync=origin + 20.0, initial_timestamp=origin + 10.0
            ),
        )
        expected = self.check(evaluator, {})
        assert not expected.plan.cost.remote_sites
        assert expected.begin < expected.completed < expected.data_timestamp


class TestPlannedStartIsHonoured:
    """A plan may wait for a replica sync: its start is later than the
    arrival.  When that start is also later than every server clock, both
    realizations must begin exactly there; one that ignores the start
    begins at the arrival or a clock and reads staler data."""

    def test_choose_best_and_realize_begin_at_a_late_start(self):
        # t0's replica syncs at 1.0; the query arrives at 0.9, and waiting
        # 0.1 minute for the sync beats reading the initial snapshot.
        evaluator = build_evaluator(build_workload([(0, 0.9, 2_000.0)]))
        free_at = {LOCAL_SITE_ID: 0.5, 0: 0.95, 1: 0.7, 2: 0.2}
        chosen = evaluator.choose_best(1, free_at)
        start = chosen.plan.start_time
        assert start == 1.0
        assert start > chosen.arrival
        assert start > max(free_at.values())
        assert chosen.begin == start
        realized = evaluator._realize(
            evaluator._compiled_query(1), chosen.candidate, free_at
        )
        assert realized.begin == start
        assert_same_assignment(chosen, realized)
        assert_same_assignment(chosen, best_naive(evaluator, 1, free_at))


class TestCandidateTruncationStats:
    def test_max_candidates_cut_is_recorded(self):
        workload = build_workload([(2, 1.0, 8_000.0)])
        evaluator = build_evaluator(workload, max_candidates=1)
        query = workload.queries[0]
        plans = evaluator.candidates(query)
        assert len(plans) == 1
        assert evaluator.stats.candidate_plans_dropped > 0

    def test_horizon_cap_is_recorded(self):
        # For small rates the tolerable delay is roughly twice the plan
        # cost, so a many-hour query must hit the 24-hour clamp.
        workload = build_workload([(2, 1.0, 200_000.0)])
        catalog = build_catalog()
        cost_model = CostModel(
            catalog,
            params=CostParameters(
                local_throughput=50.0, remote_throughput=50.0
            ),
        )
        rates = DiscountRates.symmetric(1e-4)
        evaluator = WorkloadEvaluator(catalog, cost_model, rates, workload)
        evaluator.candidates(workload.queries[0])
        assert evaluator.stats.horizon_capped == 1

    def test_stats_merge_and_summary(self):
        workload = build_workload([(0, 1.0, 8_000.0), (1, 1.1, 8_000.0)])
        evaluator = build_evaluator(workload)
        assert_identical(evaluator, [1, 2])
        assert_identical(evaluator, [2, 1])
        from repro.mqo.evaluator import EvaluatorStats

        totals = EvaluatorStats()
        totals.merge(evaluator.stats)
        totals.merge(evaluator.stats)
        assert totals.evaluations == 2 * evaluator.stats.evaluations
        assert totals.realize_calls == 2 * evaluator.stats.realize_calls
        summary = totals.summary()
        assert "realize_calls=" in summary
        assert "pruned=" in summary
