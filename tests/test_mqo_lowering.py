"""Bit-equality of per-arrival lowering against the per-plan pipeline.

``WorkloadEvaluator`` builds one skeleton per query shape and lowers each
arrival straight to compiled candidate records.  The pipeline it replaced
— ``enumerate_plans`` → estimated-IV sort →
``max_candidates`` cut → compile each :class:`QueryPlan` — lives on here as
the oracle (:func:`oracle_compile`): every lowered candidate must match it
field by field, floats compared with ``==``, and the silent-cap counters
must agree.  ``enumerate_plans`` itself stays in ``repro.core`` for the
single-query optimizer.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.enumeration import enumerate_plans
from repro.core.plan import QueryPlan, VersionKind
from repro.core.value import (
    DiscountRates,
    information_value,
    max_tolerable_latency,
)
from repro.errors import OptimizationError
from repro.federation.catalog import (
    Catalog,
    FixedSyncSchedule,
    SharedSyncFeed,
    StreamSyncSchedule,
    TableDef,
)
from repro.federation.costmodel import (
    CostModel,
    CostParameters,
    StaticCostProvider,
)
from repro.federation.site import LOCAL_SITE_ID
from repro.mqo.evaluator import (
    _BOUND_SLACK,
    _COMMIT_LEGS,
    _PLAN_CELL,
    _START,
    CANDIDATE_HORIZON_CAP,
    WorkloadEvaluator,
)
from repro.sim.rng import RandomSource
from repro.sim.streams import ExponentialStream
from repro.workload.query import DSSQuery, Workload

from tests.mqo_naive_oracle import evaluate_naive

NUM_TABLES = 6
NUM_SITES = 3
#: Table ``t5`` never has a replica: every combo reads it remotely.
UNREPLICATED = "t5"
SCHEDULE_KINDS = ("fixed", "periodic", "exponential", "shared")


# -- the oracle: the pre-lowering per-plan pipeline --------------------------


@dataclass
class OracleCandidate:
    """What compiling one :class:`QueryPlan` used to produce."""

    plan: QueryPlan
    start_time: float
    processing: float
    transmission: float
    sites: tuple[int, ...]
    commit_legs: tuple[tuple[int, float], ...]
    replica_reads: tuple[str, ...]
    has_base: bool
    upper_bound: float


@dataclass
class OracleQuery:
    candidates: list[OracleCandidate]
    suffix_bounds: list[float]
    sites: tuple[int, ...]
    latest_completion: float
    horizon_capped: int = 0
    candidate_plans_dropped: int = 0


def oracle_candidates(
    query, arrival, catalog, cost_provider, rates, max_candidates,
    counters: OracleQuery,
) -> list[QueryPlan]:
    """The old ``WorkloadEvaluator.candidates``: enumerate, sort, cut."""
    all_base_cost = cost_provider.combo_cost(query, frozenset(query.tables))
    incumbent = information_value(
        query.business_value, all_base_cost.total, all_base_cost.total, rates
    )
    tolerable = max_tolerable_latency(
        query.business_value, incumbent, rates.computational
    )
    if tolerable > CANDIDATE_HORIZON_CAP:
        counters.horizon_capped += 1
        tolerable = CANDIDATE_HORIZON_CAP
    plans = enumerate_plans(
        query, catalog, cost_provider, rates,
        submitted_at=arrival, horizon=arrival + tolerable, exhaustive=False,
    )
    plans.sort(key=lambda plan: plan.information_value, reverse=True)
    dropped = len(plans) - max_candidates
    if dropped > 0:
        counters.candidate_plans_dropped += dropped
    return plans[:max_candidates]


def oracle_compile_plan(plan: QueryPlan, arrival: float, catalog) -> OracleCandidate:
    """The old ``WorkloadEvaluator._compile_plan``."""
    cost = plan.cost
    earliest_begin = max(plan.start_time, arrival)
    replica_reads = tuple(
        v.table for v in plan.versions if v.kind is VersionKind.REPLICA
    )
    has_base = len(replica_reads) < len(plan.versions)
    total = cost.processing + cost.transmission
    min_cl = earliest_begin - arrival + total
    min_sl = total
    if replica_reads and not has_base:
        initial_max = max(
            catalog.replica(table).initial_timestamp for table in replica_reads
        )
        if initial_max > earliest_begin:
            min_sl = max(0.0, earliest_begin + total - initial_max)
    upper = information_value(
        plan.query.business_value, min_cl, min_sl, plan.rates
    ) * _BOUND_SLACK
    return OracleCandidate(
        plan=plan,
        start_time=earliest_begin,
        processing=cost.processing,
        transmission=cost.transmission,
        sites=(LOCAL_SITE_ID, *cost.remote_sites),
        commit_legs=(
            (LOCAL_SITE_ID, cost.processing),
            *((site, cost.leg_minutes(site)) for site in cost.remote_sites),
        ),
        replica_reads=replica_reads,
        has_base=has_base,
        upper_bound=upper,
    )


def oracle_compile(
    query, arrival, catalog, cost_provider, rates, max_candidates,
) -> OracleQuery:
    """The old ``WorkloadEvaluator._compiled_query`` for one query."""
    compiled = OracleQuery([], [], (), 0.0)
    plans = oracle_candidates(
        query, arrival, catalog, cost_provider, rates, max_candidates, compiled,
    )
    compiled.candidates = [
        oracle_compile_plan(plan, arrival, catalog) for plan in plans
    ]
    compiled.suffix_bounds = [0.0] * len(plans)
    running = float("-inf")
    for index in range(len(plans) - 1, -1, -1):
        running = max(running, compiled.candidates[index].upper_bound)
        compiled.suffix_bounds[index] = running
    site_union: set[int] = set()
    for candidate in compiled.candidates:
        site_union.update(candidate.sites)
    compiled.sites = tuple(sorted(site_union))
    compiled.latest_completion = max(plan.completion_time for plan in plans)
    return compiled


# -- scenarios ---------------------------------------------------------------


def build_catalog(kind: str, seed: int, initial: list[float]) -> Catalog:
    """Six tables over three sites; ``t5`` unreplicated; one schedule kind."""
    catalog = Catalog()
    source = RandomSource(seed, "lowering")
    feed = SharedSyncFeed(ExponentialStream(1.5, source.spawn("shared")))
    for index in range(NUM_TABLES):
        name = f"t{index}"
        catalog.add_table(
            TableDef(name, site=index % NUM_SITES, row_count=2_000 + 500 * index)
        )
        if name == UNREPLICATED:
            continue
        if kind == "fixed":
            schedule = FixedSyncSchedule(
                [1.0 + index * 0.5 + k * 6.0 for k in range(4)],
                tail_period=6.0,
            )
        elif kind == "periodic":
            schedule = StreamSyncSchedule.periodic(
                4.0 + index, offset=0.75 * (index + 1)
            )
        elif kind == "exponential":
            schedule = StreamSyncSchedule(
                ExponentialStream(5.0, source.spawn(f"sync/{name}"))
            )
        else:
            schedule = feed.member()
        catalog.add_replica(name, schedule, initial_timestamp=initial[index])
    return catalog


rate = st.sampled_from([0.0, 1e-4, 0.01, 0.05, 0.1, 0.15])
query_spec = st.tuples(
    st.integers(min_value=0, max_value=NUM_TABLES - 1),   # first table
    st.integers(min_value=1, max_value=3),                # tables read
    st.floats(min_value=0.0, max_value=60.0),             # arrival
    st.sampled_from([400.0, 2_000.0, 8_000.0, 20_000.0]),  # base work
    st.sampled_from([0.5, 1.0, 3.0]),                     # business value
    st.one_of(st.none(), st.tuples(rate, rate)),          # per-query rates
)


def build_workload(specs) -> Workload:
    workload = Workload()
    for index, (first, span, arrival, work, value, rates) in enumerate(specs):
        tables = tuple(f"t{(first + j) % NUM_TABLES}" for j in range(span))
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                business_value=value, base_work=work,
                rates=DiscountRates(*rates) if rates is not None else None,
            ),
            arrival=arrival,
        )
    return workload


def assert_lowering_matches_oracle(
    evaluator: WorkloadEvaluator, oracle_catalog, oracle_costs,
    selected_by: WorkloadEvaluator | None = None,
) -> None:
    """Every query of the evaluator's workload, field by field, with ``==``.

    ``selected_by`` is the evaluator whose shipped selections ``evaluator``
    builds its records from: the select step's counters are that one's.
    """
    expected_stats = OracleQuery([], [], (), 0.0)
    site_ids = evaluator._site_ids  # slot → site id, local first
    assert site_ids == [LOCAL_SITE_ID, *range(NUM_SITES)]
    for query in evaluator.workload.queries:
        arrival = evaluator.workload.arrival_of(query.query_id)
        rates = evaluator.rates_for(query)
        oracle = oracle_compile(
            query, arrival, oracle_catalog, oracle_costs, rates,
            evaluator.max_candidates,
        )
        expected_stats.horizon_capped += oracle.horizon_capped
        expected_stats.candidate_plans_dropped += oracle.candidate_plans_dropped

        compiled = evaluator._compiled_query(query.query_id)
        plans = evaluator.candidates(query)
        assert len(compiled.candidates) == len(oracle.candidates)
        for lowered, plan, want, want_suffix in zip(
            compiled.candidates, plans, oracle.candidates, oracle.suffix_bounds
        ):
            (
                suffix_bound, upper_bound, start_time, sites, processing,
                transmission, timelines, has_base, commit_legs, combo, _cell,
            ) = lowered
            # QueryPlan equality: query identity, every TableVersion
            # (kind and freshness), submission, start, ComboCost, rates.
            assert plan == want.plan
            assert plan.information_value == want.plan.information_value
            assert start_time == want.start_time
            assert processing == want.processing
            assert transmission == want.transmission
            # Records name servers by slot: remote slots in `sites`
            # (every candidate also runs through slot 0, the local
            # server), `(slot, minutes)` commit legs.
            assert (
                LOCAL_SITE_ID, *[site_ids[slot] for slot in sites]
            ) == want.sites
            assert tuple(
                [(site_ids[slot], minutes) for slot, minutes in commit_legs]
            ) == want.commit_legs
            assert tuple(t.name for t in timelines) == want.replica_reads
            assert has_base == want.has_base
            assert upper_bound == want.upper_bound
            assert suffix_bound == want_suffix
            # The flat fields are the combo's own, not copies that drift.
            assert (sites, processing, transmission, timelines, has_base,
                    commit_legs) == (
                combo.sites, combo.processing, combo.transmission,
                combo.timelines, combo.has_base, combo.commit_legs,
            )
        shape = compiled.shape
        assert shape.business_value == query.business_value
        assert shape.comp_base == (
            (1.0 - rates.computational) if rates.computational else 0.0
        )
        assert shape.sync_base == (
            (1.0 - rates.synchronization) if rates.synchronization else 0.0
        )
        assert compiled.arrival == arrival
        assert tuple(
            [site_ids[slot] for slot in compiled.sites]
        ) == oracle.sites
        assert compiled.latest_completion == oracle.latest_completion
        assert evaluator.range_of(query.query_id) == (
            arrival, oracle.latest_completion
        )
        assert evaluator.upper_bound(query.query_id) == oracle.suffix_bounds[0]
    stats = (selected_by or evaluator).stats
    assert stats.horizon_capped == expected_stats.horizon_capped
    assert stats.candidate_plans_dropped == expected_stats.candidate_plans_dropped
    assert stats.lowerings == len(evaluator.workload)


class TestLoweringMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(SCHEDULE_KINDS),
        seed=st.integers(min_value=0, max_value=2**16),
        initial=st.lists(
            st.sampled_from([0.0, 0.0, 3.0, 25.0, 90.0]),
            min_size=NUM_TABLES, max_size=NUM_TABLES,
        ),
        specs=st.lists(query_spec, min_size=1, max_size=6),
        default_rates=st.tuples(rate, rate),
        max_candidates=st.sampled_from([1, 2, 4, 64]),
        slow=st.booleans(),
    )
    def test_field_by_field(
        self, kind, seed, initial, specs, default_rates, max_candidates, slow,
    ):
        # Slow servers stretch plans to hours, so low rates hit the
        # 24-hour horizon clamp.
        params = (
            CostParameters(local_throughput=20.0, remote_throughput=20.0)
            if slow else CostParameters()
        )
        # Two identically seeded federations: the oracle must not warm
        # the evaluator's schedules or cost caches.
        catalog = build_catalog(kind, seed, initial)
        oracle_catalog = build_catalog(kind, seed, initial)
        evaluator = WorkloadEvaluator(
            catalog, CostModel(catalog, params=params),
            DiscountRates(*default_rates), build_workload(specs),
            max_candidates=max_candidates,
        )
        assert_lowering_matches_oracle(
            evaluator, oracle_catalog, CostModel(oracle_catalog, params=params)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(SCHEDULE_KINDS),
        seed=st.integers(min_value=0, max_value=2**16),
        initial=st.lists(
            st.sampled_from([0.0, 0.0, 3.0, 25.0, 90.0]),
            min_size=NUM_TABLES, max_size=NUM_TABLES,
        ),
        specs=st.lists(query_spec, min_size=1, max_size=6),
        default_rates=st.tuples(rate, rate),
        max_candidates=st.sampled_from([1, 2, 4, 64]),
    )
    def test_records_from_a_shipped_selection(
        self, kind, seed, initial, specs, default_rates, max_candidates
    ):
        """Select in one evaluator, build records in another (the sharded
        sweep's prelude and shard): the same records as lowering in place."""
        def evaluator(**extra) -> WorkloadEvaluator:
            catalog = build_catalog(kind, seed, initial)  # as a new process
            return WorkloadEvaluator(
                catalog, CostModel(catalog), DiscountRates(*default_rates),
                build_workload(specs), max_candidates=max_candidates, **extra,
            )

        prelude = evaluator()
        shipped: dict[int, tuple] = {}
        ranges = {
            query.query_id: prelude.range_of(query.query_id, shipped)
            for query in prelude.workload.queries
        }
        assert prelude._compiled == {} and prelude._summaries == {}
        assert pickle.loads(pickle.dumps(shipped)) == shipped
        owner = evaluator(selections=shipped)
        oracle_catalog = build_catalog(kind, seed, initial)
        assert_lowering_matches_oracle(
            owner, oracle_catalog, CostModel(oracle_catalog),
            selected_by=prelude,
        )
        assert shipped == {}  # consumed as each query was lowered
        assert owner.stats.lowerings == 0
        assert ranges == {qid: owner.range_of(qid) for qid in ranges}
        # Evicted, a query has no selection left and selects for itself.
        first = owner.workload.query(1)
        plans = owner.candidates(first)
        owner.evict(1)
        assert owner.candidates(first) == plans
        assert owner.stats.lowerings == 1

    def test_static_cost_provider_and_shared_shapes(self):
        # Two queries of one shape at different arrivals share a skeleton
        # and still lower to their own candidates.
        catalog = build_catalog("fixed", 0, [0.0] * NUM_TABLES)
        oracle_catalog = build_catalog("fixed", 0, [0.0] * NUM_TABLES)

        def costs(cat):
            return StaticCostProvider(
                cat, {0: 2.0, 1: 4.0, 2: 6.0}, transmission=0.25,
                remote_leg_fraction=0.5,
            )

        workload = Workload()
        for index, arrival in enumerate([0.0, 2.2, 7.0, 13.1]):
            workload.add(
                DSSQuery(index + 1, f"q{index + 1}", ("t0", "t1")),
                arrival=arrival,
            )
        evaluator = WorkloadEvaluator(
            catalog, costs(catalog), DiscountRates.symmetric(0.05), workload
        )
        assert_lowering_matches_oracle(
            evaluator, oracle_catalog, costs(oracle_catalog)
        )
        assert evaluator.stats.shapes == 1

    def test_horizon_cap_counts_per_lowering(self):
        catalog = build_catalog("periodic", 1, [0.0] * NUM_TABLES)
        params = CostParameters(local_throughput=10.0, remote_throughput=10.0)
        workload = build_workload(
            [(0, 2, 1.0, 20_000.0, 1.0, None), (0, 2, 9.0, 20_000.0, 1.0, None)]
        )
        evaluator = WorkloadEvaluator(
            catalog, CostModel(catalog, params=params),
            DiscountRates.symmetric(1e-4), workload,
        )
        assert_lowering_matches_oracle(
            evaluator,
            build_catalog("periodic", 1, [0.0] * NUM_TABLES),
            CostModel(
                build_catalog("periodic", 1, [0.0] * NUM_TABLES), params=params
            ),
        )
        assert evaluator.stats.horizon_capped == 2
        assert evaluator.stats.shapes == 1


class TestLazyPlansAndEviction:
    def build(self) -> WorkloadEvaluator:
        catalog = build_catalog("fixed", 0, [0.0] * NUM_TABLES)
        workload = build_workload(
            [(0, 2, 1.0, 2_000.0, 1.0, None), (1, 2, 1.5, 2_000.0, 1.0, None)]
        )
        return WorkloadEvaluator(
            catalog, CostModel(catalog), DiscountRates.symmetric(0.1), workload
        )

    def test_plans_materialise_only_on_request(self):
        evaluator = self.build()
        result = evaluator.evaluate([1, 2])
        for compiled in evaluator._compiled.values():
            assert all(c[_PLAN_CELL] == [None] for c in compiled.candidates)
        chosen = result.assignments[0]
        plan = chosen.plan
        assert plan is chosen.plan  # built once, then cached
        assert plan.start_time == chosen.candidate[_START]
        assert plan.submitted_at == chosen.arrival
        materialised = [
            c for compiled in evaluator._compiled.values()
            for c in compiled.candidates if c[_PLAN_CELL] != [None]
        ]
        assert len(materialised) == 1 and materialised[0] is chosen.candidate

    def test_evict_keeps_range_and_bound_and_relowers_on_demand(self):
        evaluator = self.build()
        before = (evaluator.range_of(1), evaluator.upper_bound(1))
        plans = evaluator.candidates(evaluator.workload.query(1))
        evaluator.evict(1)
        assert 1 not in evaluator._compiled
        assert (evaluator.range_of(1), evaluator.upper_bound(1)) == before
        assert evaluator.stats.lowerings == 1  # served from retained floats
        assert evaluator.candidates(evaluator.workload.query(1)) == plans
        assert evaluator.stats.lowerings == 2

    def test_online_dispatch_evicts_started_queries(self):
        from repro.mqo.online import OnlineConfig, OnlineMQOScheduler

        evaluator = self.build()
        scheduler = OnlineMQOScheduler(
            evaluator.catalog, evaluator.cost_provider,
            evaluator.default_rates, config=OnlineConfig(window=2.0),
        )
        from repro.mqo.online import drive
        from repro.sim.clocks import SimClock

        clock = SimClock()
        session = scheduler.session(evaluator.workload, clock)
        session.push_arrivals()
        drive(session, clock)
        assert session.stats.dispatched == 2
        assert session.evaluator._compiled == {}
        # The started assignment still materialises its plan.
        assert session.started[1].plan.query is evaluator.workload.query(1)


class TestShippedSelectionsFailLoudly:
    """A selection the evaluator cannot have made itself is an error."""

    def build(self, **extra) -> WorkloadEvaluator:
        catalog = build_catalog("fixed", 0, [0.0] * NUM_TABLES)
        # q1 reads t0 and t1 (both replicated), q2 reads t4 and base-only t5.
        workload = build_workload(
            [(0, 2, 1.0, 2_000.0, 1.0, None), (4, 2, 1.5, 2_000.0, 1.0, None)]
        )
        return WorkloadEvaluator(
            catalog, CostModel(catalog), DiscountRates.symmetric(0.1),
            workload, **extra,
        )

    @pytest.mark.parametrize("qid, remote", [
        (1, frozenset({"t3"})),          # not one of the query's tables
        (1, frozenset({"t0", "t9"})),    # nor a table at all
        (2, frozenset()),                # t5 has no replica to read
        (2, frozenset({"t4"})),
        (1, ("t0",)),                    # not a set
    ])
    def test_a_remote_set_the_shape_does_not_have(self, qid, remote):
        evaluator = self.build(selections={qid: ((1.5, remote),)})
        with pytest.raises(OptimizationError, match="not a remote set"):
            evaluator.upper_bound(qid)


class TestShapeKeyedCostModel:
    """Regression: cost-model caches grew by one entry set per query object."""

    def test_reided_copies_share_compiled_costs(self):
        catalog = build_catalog("fixed", 0, [0.0] * NUM_TABLES)
        cost_model = CostModel(catalog)
        templates = [
            DSSQuery(
                query_id=index, name=f"template{index}",
                tables=tuple(
                    f"t{(index + j) % (NUM_TABLES - 1)}"
                    for j in range(1 + index % 2)
                ),
                base_work=400.0 + 80.0 * (index % 5),
            )
            for index in range(12)
        ]
        combos = {
            template.query_id: [
                frozenset(template.tables[:k])
                for k in range(len(template.tables) + 1)
            ]
            for template in templates
        }
        entries = sum(len(sets) for sets in combos.values())
        for qid in range(5_000):
            template = templates[qid % len(templates)]
            # What QueryService.submit mints per request.
            query = replace(template, query_id=1_000 + qid)
            for remote in combos[template.query_id]:
                cost_model.combo_cost(query, remote)
        assert len(cost_model._combo_cache) <= entries
        assert len(cost_model._base_work_cache) <= len(templates)
        assert cost_model.compiles <= entries


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_evaluation_equals_naive_on_every_schedule_kind(kind):
    """Fast path vs the catalog-walking reference, over lowered candidates."""
    catalog = build_catalog(kind, 5, [0.0, 3.0, 0.0, 25.0, 0.0, 0.0])
    workload = build_workload([
        (0, 2, 0.5, 2_000.0, 1.0, None),
        (1, 3, 0.9, 8_000.0, 3.0, (0.05, 0.0)),
        (3, 3, 1.4, 2_000.0, 0.5, (0.0, 0.1)),
        (2, 1, 2.0, 400.0, 1.0, None),
    ])
    evaluator = WorkloadEvaluator(
        catalog, CostModel(catalog), DiscountRates.symmetric(0.1), workload
    )
    for order in ([1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]):
        fast = evaluator.evaluate_sequence(order)
        naive = evaluate_naive(evaluator, order)
        for a, b in zip(fast.assignments, naive.assignments):
            assert a.plan is b.plan
            assert (a.begin, a.completed, a.data_timestamp) == (
                b.begin, b.completed, b.data_timestamp
            )
        assert fast.total_information_value == naive.total_information_value


class TestUpperBoundAdmissible:
    """``upper_bound`` is what admission control sheds on: no candidate may
    ever realize more, whatever the committed clocks, and at idle clocks a
    query without sync discounting realizes its bound (so a bound scaled
    down or up fails here, not only in the bit-equality oracles)."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(SCHEDULE_KINDS),
        seed=st.integers(min_value=0, max_value=2**16),
        initial=st.lists(
            st.sampled_from([0.0, 0.0, 3.0, 25.0, 90.0]),
            min_size=NUM_TABLES, max_size=NUM_TABLES,
        ),
        specs=st.lists(query_spec, min_size=1, max_size=4),
        default_rates=st.tuples(rate, rate),
        clocks=st.lists(
            st.floats(min_value=0.0, max_value=120.0),
            min_size=NUM_SITES + 1, max_size=NUM_SITES + 1,
        ),
    )
    @example(
        kind="fixed", seed=0, initial=[0.0] * NUM_TABLES,
        specs=[(0, 2, 1.0, 2_000.0, 1.0, None)], default_rates=(0.1, 0.1),
        clocks=[0.0] * (NUM_SITES + 1),
    )
    def test_no_candidate_realizes_more_than_the_bound(
        self, kind, seed, initial, specs, default_rates, clocks
    ):
        def evaluator(specs, default_rates) -> WorkloadEvaluator:
            catalog = build_catalog(kind, seed, initial)
            return WorkloadEvaluator(
                catalog, CostModel(catalog), DiscountRates(*default_rates),
                build_workload(specs),
            )

        def realized(evaluator, qid, free_at) -> list[float]:
            compiled = evaluator._compiled_query(qid)
            return [
                evaluator._realize(compiled, candidate, free_at)
                .information_value
                for candidate in compiled.candidates
            ]

        busy = evaluator(specs, default_rates)
        free_at = dict(zip(busy._site_ids, clocks))
        for qid in range(1, len(specs) + 1):
            bound = busy.upper_bound(qid)
            assert max(realized(busy, qid, free_at)) <= bound
            assert max(realized(busy, qid, {})) <= bound
        # Without the sync discount an idle server realizes CL at its
        # minimum, so the best-bounded candidate reaches its bound.
        tight = evaluator(
            [(*spec[:5], None) for spec in specs], (default_rates[0], 0.0)
        )
        for qid in range(1, len(specs) + 1):
            bound = tight.upper_bound(qid)
            best = max(realized(tight, qid, {}))
            assert best <= bound <= best * _BOUND_SLACK**2


class TestCommitClocks:
    """Every commit holds each leg's server until exactly ``begin +
    minutes`` and never turns a clock back: ``begin`` already waited for
    every server the choice commits (FIFO, greedy and online dispatch)."""

    @staticmethod
    def checked(commits: list) -> object:
        original = WorkloadEvaluator._commit

        def commit(self, assignment, free_at):
            before = dict(free_at)
            original(self, assignment, free_at)
            legs = {
                self._site_ids[slot]: minutes
                for slot, minutes in assignment.candidate[_COMMIT_LEGS]
            }
            assert set(free_at) == set(before) | set(legs)
            for site, clock in free_at.items():
                if site in legs:
                    assert clock == assignment.begin + legs[site]
                    assert clock >= before.get(site, 0.0)
                else:
                    assert clock == before[site]
            commits.append(assignment.query.query_id)

        return commit

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(SCHEDULE_KINDS),
        seed=st.integers(min_value=0, max_value=2**16),
        specs=st.lists(query_spec, min_size=1, max_size=5),
        default_rates=st.tuples(rate, rate),
    )
    @example(
        kind="fixed", seed=0, specs=[(0, 2, 1.0, 2_000.0, 1.0, None)],
        default_rates=(0.1, 0.1),
    )
    def test_each_commit_sets_begin_plus_minutes(
        self, kind, seed, specs, default_rates
    ):
        from unittest import mock

        from repro.mqo.ga import GAConfig
        from repro.mqo.online import OnlineConfig, OnlineMQOScheduler
        from repro.mqo.scheduler import WorkloadScheduler

        def world():
            catalog = build_catalog(kind, seed, [0.0] * NUM_TABLES)
            return catalog, CostModel(catalog), DiscountRates(*default_rates)

        ga = GAConfig(population_size=6, generations=3)
        runs = [
            lambda w: WorkloadScheduler(*world(), ga_config=ga).fifo(w),
            lambda w: WorkloadScheduler(*world(), ga_config=ga)
            .greedy_dispatch(w),
            lambda w: OnlineMQOScheduler(
                *world(), ga_config=ga, config=OnlineConfig(window=2.0)
            ).run(w),
        ]
        for run in runs:
            commits: list[int] = []
            with mock.patch.object(
                WorkloadEvaluator, "_commit", self.checked(commits)
            ):
                run(build_workload(specs))
            assert sorted(commits) == list(range(1, len(specs) + 1))
