"""Fast-path equivalence and bookkeeping of the workload evaluator.

The layered fast path (compiled plans, upper-bound pruning, prefix cache,
choice memo) must be invisible: bit-identical assignments and totals to
the naive replay (``tests/mqo_naive_oracle.py``) on every workload and
permutation, under any cache pressure.  These tests drive randomized
workloads through both and poke at the caps and counters.
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
from repro.mqo.ga import GAConfig, GeneticAlgorithm
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

    def test_shared_prefix_reuses_trie(self):
        workload = build_workload(
            [(0, 1.0, 8_000.0), (1, 1.2, 8_000.0),
             (2, 1.4, 8_000.0), (3, 1.6, 8_000.0)]
        )
        evaluator = build_evaluator(workload)
        assert_identical(evaluator, [1, 2, 3, 4])
        # Same prefix, different tail: resume depth 2 at least.
        assert_identical(evaluator, [1, 2, 4, 3])
        assert evaluator.stats.prefix_hits >= 1
        assert evaluator.stats.prefix_queries_skipped >= 2

    def test_tiny_trie_cap_still_correct(self):
        workload = build_workload(
            [(0, 1.0, 8_000.0), (1, 1.1, 8_000.0), (2, 1.2, 8_000.0)]
        )
        evaluator = build_evaluator(workload, max_prefix_entries=2)
        perms = [[1, 2, 3], [2, 1, 3], [3, 2, 1], [1, 3, 2], [2, 3, 1]]
        for perm in perms:
            assert_identical(evaluator, perm)
        assert evaluator.stats.trie_evictions > 0
        assert evaluator.stats.trie_entries <= 2

    def test_evicted_trie_re_roots_at_the_rebased_clocks(self):
        # Regression: the generational clear re-rooted the trie at idle
        # servers, so after one eviction every order scored as if nothing
        # had been committed (1.84 against the reference's 0.029 here).
        workload = build_workload(
            [(0, 1.0, 8_000.0), (0, 1.1, 8_000.0),
             (0, 1.2, 8_000.0), (0, 1.3, 8_000.0)]
        )
        evaluator = build_evaluator(workload, max_prefix_entries=3)
        evaluator.rebase({LOCAL_SITE_ID: 40.0})
        for order in ([1, 2, 3, 4], [2, 1, 3, 4], [1, 2, 3, 4]):
            assert (
                evaluator.sequence_fitness(order)
                == evaluate_naive(evaluator, order).total_information_value
            )
        assert evaluator.stats.trie_evictions > 0

    def test_zero_cap_disables_memoization(self):
        workload = build_workload([(0, 1.0, 8_000.0), (1, 1.1, 8_000.0)])
        evaluator = build_evaluator(workload, max_prefix_entries=0)
        assert_identical(evaluator, [1, 2])
        assert_identical(evaluator, [1, 2])
        assert evaluator.stats.trie_entries == 0
        assert evaluator.stats.prefix_hits == 0

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

    # The trie re-root bug: a cap-3 trie evicts on the fourth position of
    # the cold walk, and the warm walk after it started from idle servers.
    @example(
        specs=[(0, 1.0, 8_000.0), (0, 1.1, 8_000.0),
               (0, 1.2, 8_000.0), (0, 1.3, 8_000.0)],
        steps=[("rebase", {LOCAL_SITE_ID: 40.0}),
               ("score", _EveryQueryInOrder())],
        cap=3,
    )
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(query_spec, min_size=2, max_size=6),
        steps=st.lists(session_step, min_size=1, max_size=12),
        cap=st.sampled_from([0, 3, 65_536]),
    )
    def test_over_random_orders_rebases_and_evictions(self, specs, steps, cap):
        workload = build_workload(specs)
        evaluator = build_evaluator(workload, max_prefix_entries=cap)
        qids = [q.query_id for q in workload.queries]
        for kind, argument in steps:
            if kind == "rebase":
                evaluator.rebase(argument)
                continue
            if kind == "evict":
                evaluator.evict(qids[argument % len(qids)])
                continue
            order = argument.sample(qids, argument.randint(0, len(qids)))
            # Scored cold, then realized (now trie-warm), then the
            # catalog-walking reference: three routes to one total.
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

    def test_scoring_leaves_the_dispatch_memo_alone(self):
        # The choice memo serves choose_best only: inside the walk it
        # missed seven probes in eight and cost more to ask than it saved.
        workload = build_workload(
            [(0, 1.0, 8_000.0), (1, 1.2, 8_000.0), (2, 1.4, 8_000.0)]
        )
        evaluator = build_evaluator(workload)
        for _ in range(2):
            for order in ([1, 2, 3], [2, 1, 3], [3, 1]):
                evaluator.sequence_fitness(order)
        assert evaluator.stats.choice_hits == 0
        assert evaluator._choices == {}

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

    def test_memoised_choice_outlives_eviction(self):
        # A choice memo entry can be served after its query's records were
        # evicted and re-lowered; the assignment must still carry a plan.
        workload = build_workload([(0, 1.0, 8_000.0), (1, 1.2, 8_000.0)])
        evaluator = build_evaluator(workload)
        first = evaluator.choose_best(1, {})
        evaluator.evict(1)
        again = evaluator.choose_best(1, {})
        assert evaluator.stats.choice_hits == 1
        assert again.plan is first.plan
        assert (again.begin, again.completed) == (first.begin, first.completed)


class ReferencePrefixCache:
    """The prefix cache as a set of cached id prefixes, with the same
    generational clear: what the segment cache must count like."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.prefixes: set[tuple[int, ...]] = set()
        self.entries = self.evictions = self.hits = 0
        self.depths: dict[int, int] = {}

    def rebase(self, changed: bool) -> None:
        if changed:
            self.prefixes = set()
            self.entries = 0

    def walk(self, order: list[int]) -> None:
        order = tuple(order)
        depth = 0
        while depth < len(order) and order[:depth + 1] in self.prefixes:
            depth += 1
        self.hits += depth > 0
        self.depths[depth] = self.depths.get(depth, 0) + 1
        reachable = True
        for end in range(depth + 1, len(order) + 1 if self.cap else 0):
            if self.entries < self.cap:
                self.entries += 1
                if reachable:
                    self.prefixes.add(order[:end])
            else:
                # Cleared mid-walk: the rest of the walk still counts, but
                # the new root cannot reach it.
                self.prefixes = set()
                self.entries = 0
                self.evictions += 1
                reachable = False


def cached_segments(evaluator: WorkloadEvaluator) -> list:
    """Every segment reachable from the prefix cache's root."""
    found = []
    stack = [evaluator._root]
    while stack:
        children = list(stack.pop().branches.values())
        found.extend(children)
        stack.extend(children)
    return found


#: Every site id of ``build_catalog``'s evaluators, local first.
ALL_SITES = (LOCAL_SITE_ID, *range(NUM_SITES))


class TestSegmentCacheIsATrie:
    """One segment per walk must cache, resume and evict exactly like the
    one-node-per-position trie it replaced, modelled as a prefix set."""

    @settings(max_examples=80, deadline=None)
    @given(
        specs=st.lists(query_spec, min_size=2, max_size=8),
        cap=st.sampled_from([0, 1, 3, 64]),
        data=st.data(),
    )
    def test_counts_like_a_set_of_prefixes(self, specs, cap, data):
        workload = build_workload(specs)
        evaluator = build_evaluator(workload, max_prefix_entries=cap)
        reference = ReferencePrefixCache(cap)
        qids = [query.query_id for query in workload.queries]
        orders = [qids]
        base = (0.0,) * len(ALL_SITES)
        for _ in range(data.draw(st.integers(min_value=1, max_value=16))):
            step = data.draw(st.sampled_from(
                ["score", "score", "score", "realize", "same base",
                 "new base"]
            ))
            if step.endswith("base"):
                if step == "new base":
                    drawn = data.draw(st.dictionaries(
                        st.sampled_from(ALL_SITES), site_clock
                    ))
                    clocks = tuple(drawn.get(site, 0.0) for site in ALL_SITES)
                    reference.rebase(changed=clocks != base)
                    base = clocks
                evaluator.rebase(dict(zip(ALL_SITES, base)))
                continue
            # A drawn order shares a drawn prefix with an earlier one.
            source = data.draw(st.sampled_from(orders))
            prefix = source[:data.draw(
                st.integers(min_value=0, max_value=len(source))
            )]
            rest = data.draw(st.permutations(
                [qid for qid in qids if qid not in prefix]
            ))
            order = [*prefix, *rest[:data.draw(
                st.integers(min_value=0, max_value=len(rest))
            )]]
            orders.append(order)
            naive = evaluate_naive(evaluator, order)
            if step == "realize":
                result = evaluator.evaluate_sequence(order)
                assert_same_result(result, naive)
                total = result.total_information_value
            else:
                total = evaluator.sequence_fitness(order)
            reference.walk(order)
            assert total == naive.total_information_value
            stats = evaluator.stats
            assert stats.resume_depths == reference.depths
            assert (
                stats.prefix_hits, stats.trie_entries, stats.trie_evictions
            ) == (reference.hits, reference.entries, reference.evictions)

    @pytest.mark.parametrize("cap", [65_536, 16])
    def test_a_ga_run_leaves_one_segment_per_fresh_walk(self, cap):
        workload = build_workload(
            [(index % NUM_TABLES, 1.0 + 0.1 * index, 4_000.0 + 500.0 * index)
             for index in range(10)]
        )
        evaluator = build_evaluator(workload, max_prefix_entries=cap)
        stats = evaluator.stats
        fresh_walks = 0

        def fitness(order: list[int]) -> float:
            nonlocal fresh_walks
            skipped = stats.prefix_queries_skipped
            total = evaluator.sequence_fitness(order)
            fresh_walks += stats.prefix_queries_skipped - skipped < len(order)
            return total

        GeneticAlgorithm(
            genes=[query.query_id for query in workload.queries],
            fitness=fitness,
            config=GAConfig(population_size=16, generations=10),
            seed=3,
        ).run()
        segments = cached_segments(evaluator)
        assert 0 < len(segments) <= fresh_walks
        slots = len(ALL_SITES)
        for segment in segments:
            positions = len(segment.ids)
            assert positions > 0
            assert len(segment.clocks) == slots * positions
            assert len(segment.totals) == positions
            assert len(segment.choices) == 4 * positions
        if stats.trie_evictions == 0:
            assert cap == 65_536
            assert len(segments) == fresh_walks
            assert sum(len(segment.ids) for segment in segments) == (
                stats.trie_entries
            )


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
    workloads reach rarely: ``choose_best`` on a memo miss and on a hit,
    and ``evaluate_sequence`` from the same clocks, with the prefix cache
    on and off."""

    def check(self, evaluator, free_at):
        expected = best_naive(evaluator, 1, free_at)
        stats = evaluator.stats
        missed = evaluator.choose_best(1, free_at)
        assert stats.choice_hits == 0
        hit = evaluator.choose_best(1, dict(free_at))
        assert stats.choice_hits == 1
        evaluator.rebase(free_at)
        order = [query.query_id for query in evaluator.workload.queries]
        result = evaluator.evaluate_sequence(order)
        for fast in (missed, hit, result.assignments[0]):
            assert_same_assignment(fast, expected)
        assert_same_result(result, evaluate_naive(evaluator, order))
        return expected

    @pytest.mark.parametrize("cap", [65_536, 0])
    def test_bound_decayed_by_the_local_wait_prunes(self, cap):
        workload = build_workload([(1, 1.0, 8_000.0), (2, 1.1, 2_000.0)])
        evaluator = build_evaluator(workload, max_prefix_entries=cap)
        free_at = {LOCAL_SITE_ID: 5.0}
        assert decay_prunes(evaluator, 1, free_at) > 0
        self.check(evaluator, free_at)

    @pytest.mark.parametrize("cap", [65_536, 0])
    def test_begin_waits_on_a_remote_slot(self, cap):
        workload = build_workload([(1, 5.6, 2_000.0), (4, 5.7, 2_000.0)])
        evaluator = build_evaluator(workload, max_prefix_entries=cap)
        expected = self.check(evaluator, {1: 6.1})
        assert 1 in expected.plan.cost.remote_sites
        assert expected.plan.start_time < expected.begin == 6.1

    @pytest.mark.parametrize("cap", [65_536, 0])
    def test_pure_replica_data_stamped_after_begin(self, cap):
        workload = build_workload([(0, 1.0, 2_000.0), (3, 1.2, 2_000.0)])
        evaluator = build_evaluator(
            workload,
            catalog=build_catalog(first_sync=20.0, initial_timestamp=10.0),
            max_prefix_entries=cap,
        )
        expected = self.check(evaluator, {})
        assert not expected.plan.cost.remote_sites
        assert expected.begin < expected.completed < expected.data_timestamp


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
        assert "prefix_hits=" in summary
