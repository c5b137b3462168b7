"""Unit tests: the rolling-window online MQO scheduler.

Covers admission control (IV-floor shedding, bounded queue deferral and
re-queue), window accounting, warm starts, trace events, the
``FederatedSystem`` streaming submit path, ``run_stream(online=True)``
and the checker's online invariant rules.
"""

from __future__ import annotations

import math

import pytest

from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.experiments.config import TpchSetup, sync_interval_for_ratio
from repro.experiments.runner import run_stream
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.ga import GAConfig
from repro.mqo.online import (
    LifecycleTrace,
    OnlineConfig,
    OnlineMQOScheduler,
    OnlineStats,
    SessionObserver,
    WindowRecord,
    drive,
    step,
)
from repro.obs import events
from repro.obs.checker import TraceChecker
from repro.sim.timeline import Timeline
from repro.sim.trace import TraceRecord, Tracer
from repro.workload.query import DSSQuery, Workload

from tests.test_mqo_scheduling import build_catalog, burst_workload


def build_online(
    config: OnlineConfig | None = None,
    rates: DiscountRates | None = None,
    params: CostParameters | None = None,
    tracer: Tracer | None = None,
    generations: int = 10,
    seed: int = 1,
) -> OnlineMQOScheduler:
    catalog = build_catalog()
    cost_model = CostModel(catalog, params=params or CostParameters())
    return OnlineMQOScheduler(
        catalog,
        cost_model,
        rates or DiscountRates.symmetric(0.1),
        ga_config=GAConfig(generations=generations),
        seed=seed,
        tracer=tracer,
        config=config,
    )


class TestTimeline:
    def test_orders_by_time(self):
        timeline = Timeline()
        timeline.push(3.0, "c")
        timeline.push(1.0, "a")
        timeline.push(2.0, "b")
        assert [timeline.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_within_an_instant(self):
        timeline = Timeline()
        for tag in ("first", "second", "third"):
            timeline.push(5.0, tag)
        assert [timeline.pop()[1] for _ in range(3)] == [
            "first", "second", "third",
        ]

    def test_peek_len_bool(self):
        timeline = Timeline()
        assert not timeline and len(timeline) == 0
        timeline.push(2.0, "x", payload=42)
        assert timeline and len(timeline) == 1
        assert timeline.peek_time() == 2.0
        assert timeline.pop() == (2.0, "x", 42)
        with pytest.raises(IndexError):
            timeline.pop()


class TestOnlineConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(OptimizationError):
            OnlineConfig(window=0.0)
        with pytest.raises(OptimizationError):
            OnlineConfig(max_pending=0)
        with pytest.raises(OptimizationError):
            OnlineConfig(iv_floor=-0.1)


class TestOnlineScheduling:
    def test_everyone_admitted_executes_exactly_once(self):
        scheduler = build_online(OnlineConfig(window=2.0, max_pending=16))
        workload = burst_workload(count=6)
        decision = scheduler.run(workload)
        assert sorted(decision.permutation) == [1, 2, 3, 4, 5, 6]
        assert decision.stats.dispatched == 6
        assert decision.stats.shed == 0
        assert decision.shed == []

    def test_empty_workload_rejected(self):
        scheduler = build_online()
        with pytest.raises(OptimizationError):
            scheduler.run(Workload())

    def test_windows_are_recorded(self):
        scheduler = build_online(
            OnlineConfig(window=0.3, max_pending=16, eager_start=False)
        )
        decision = scheduler.run(burst_workload(count=6, gap=0.4))
        assert decision.stats.windows == len(decision.windows) >= 2
        for earlier, later in zip(decision.windows, decision.windows[1:]):
            assert later.index == earlier.index + 1
            assert later.time >= earlier.time
        for record in decision.windows:
            assert isinstance(record, WindowRecord)
            assert record.trigger in {"window", "completion", "idle"}
            assert record.reopt_seconds >= 0.0
        assert decision.stats.reopt_seconds >= sum(
            w.reopt_seconds for w in decision.windows
        ) * 0.99

    def test_iv_floor_sheds_hopeless_queries(self):
        # A floor above every candidate's best-case IV sheds the query; the
        # remaining stream still runs.
        scheduler = build_online(
            OnlineConfig(window=2.0, max_pending=16, iv_floor=0.5)
        )
        workload = Workload()
        workload.add(
            DSSQuery(query_id=1, name="good", tables=("t0",),
                     base_work=2_000.0),
            arrival=1.0,
        )
        # Enormous base work => long processing => IV decays below any
        # reasonable floor even in the best case.
        workload.add(
            DSSQuery(query_id=2, name="doomed", tables=("t1",),
                     base_work=500_000.0),
            arrival=1.2,
        )
        decision = scheduler.run(workload)
        assert decision.shed == [2]
        assert decision.stats.shed == 1
        assert decision.permutation == [1]
        assert all(
            a.query.query_id != 2 for a in decision.result.assignments
        )

    def test_a_floor_equal_to_the_bound_admits(self):
        """Shedding is ``bound < iv_floor``: a query whose upper bound
        equals the floor is admitted, one ulp above it is shed.  Kills the
        mutant ``bound <= iv_floor``, which sheds at the boundary."""
        workload = Workload()
        workload.add(
            DSSQuery(query_id=1, name="edge", tables=("t0",),
                     base_work=2_000.0),
            arrival=1.0,
        )

        def run(iv_floor: float):
            tracer = Tracer(lambda: 0.0)
            scheduler = build_online(
                OnlineConfig(window=2.0, max_pending=16, iv_floor=iv_floor),
                tracer=tracer,
            )
            return scheduler.run(workload), tracer

        # A floor above any IV sheds the query and traces its bound.
        decision, tracer = run(2.0)
        (shed,) = tracer.filter(kind=events.MQO_SHED)
        bound = shed.detail["bound"]
        assert decision.shed == [1] and 0.0 < bound < 1.0

        at_bound, _ = run(bound)
        assert at_bound.shed == [] and at_bound.permutation == [1]
        above, _ = run(math.nextafter(bound, math.inf))
        assert above.shed == [1] and above.permutation == []

    def test_bounded_queue_defers_and_requeues(self):
        scheduler = build_online(
            OnlineConfig(window=1.0, max_pending=2, eager_start=False)
        )
        decision = scheduler.run(burst_workload(count=6, gap=0.05))
        assert decision.stats.deferred > 0
        assert decision.stats.requeued == decision.stats.deferred
        # Deferral delays, never drops: everyone still executes.
        assert sorted(decision.permutation) == [1, 2, 3, 4, 5, 6]

    def test_warm_starts_engage_across_windows(self):
        scheduler = build_online(
            OnlineConfig(window=0.15, max_pending=16, eager_start=False)
        )
        decision = scheduler.run(burst_workload(count=8, gap=0.1))
        assert decision.stats.ga_runs >= 2
        assert decision.stats.warm_seeds >= 1

    def test_online_beats_fifo_under_contention(self):
        params = CostParameters(
            local_throughput=1_000.0, remote_throughput=400.0
        )
        rates = DiscountRates.symmetric(0.15)
        scheduler = build_online(
            OnlineConfig(window=1.0, max_pending=16), rates=rates,
            params=params,
        )
        workload = burst_workload(count=6, gap=0.1)
        decision = scheduler.run(workload)

        from repro.mqo.scheduler import WorkloadScheduler

        fifo = WorkloadScheduler(
            scheduler.catalog, scheduler.cost_provider, rates
        ).fifo(workload)
        assert (
            decision.total_information_value
            >= fifo.total_information_value - 1e-9
        )

    def test_events_emitted(self):
        tracer = Tracer(lambda: 0.0)
        scheduler = build_online(
            OnlineConfig(window=2.0, max_pending=16), tracer=tracer
        )
        scheduler.run(burst_workload(count=4))
        kinds = [record.kind for record in tracer.records]
        assert kinds.count(events.MQO_ADMIT) == 4
        assert events.MQO_WINDOW in kinds
        assert TraceChecker().check(tracer.records) == []

    def test_shed_event_carries_bound_and_floor(self):
        tracer = Tracer(lambda: 0.0)
        scheduler = build_online(
            OnlineConfig(window=2.0, max_pending=16, iv_floor=0.5),
            tracer=tracer,
        )
        workload = Workload()
        workload.add(
            DSSQuery(query_id=1, name="doomed", tables=("t0",),
                     base_work=500_000.0),
            arrival=0.5,
        )
        workload.add(
            DSSQuery(query_id=2, name="fine", tables=("t1",),
                     base_work=2_000.0),
            arrival=0.6,
        )
        scheduler.run(workload)
        shed = [r for r in tracer.records if r.kind == events.MQO_SHED]
        assert len(shed) == 1
        assert shed[0].detail["qid"] == 1
        assert shed[0].detail["bound"] < shed[0].detail["floor"] == 0.5


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def setup(self) -> TpchSetup:
        return TpchSetup(scale=0.001, seed=3)

    def test_submit_workload_online_realizes_schedule(self, setup):
        from repro.experiments.runner import _build, reissue_stream
        from repro.workload.arrival import poisson_arrivals

        config = setup.system_config(
            "ivqp", DiscountRates.symmetric(0.05),
            sync_interval_for_ratio(10.0), seed=1,
        )
        system = _build(config, "ivqp")
        queries = reissue_stream(setup.queries()[:6])
        arrivals = poisson_arrivals(5.0, len(queries), seed=3)
        workload = Workload.from_queries(queries, arrivals=arrivals)
        decision = system.submit_workload_online(
            workload, config=OnlineConfig(window=8.0, max_pending=8)
        )
        system.run()
        assert system.online is decision
        executed = len(decision.result.assignments)
        assert len(system.outcomes) == executed == 6

    def test_run_stream_online_mode(self, setup):
        config = setup.system_config(
            "ivqp", DiscountRates.symmetric(0.05),
            sync_interval_for_ratio(10.0), seed=1,
        )
        result = run_stream(
            config, "ivqp", setup.queries()[:5], mean_interarrival=6.0,
            online=True,
            online_config=OnlineConfig(window=10.0, max_pending=8),
        )
        assert result.online is not None
        assert result.online.stats.submitted == 5
        assert len(result.outcomes) == result.online.stats.dispatched
        assert result.mean_iv > 0.0

    def test_run_stream_batch_mode_has_no_online_decision(self, setup):
        config = setup.system_config(
            "ivqp", DiscountRates.symmetric(0.05),
            sync_interval_for_ratio(10.0), seed=1,
        )
        result = run_stream(
            config, "ivqp", setup.queries()[:3], mean_interarrival=6.0,
        )
        assert result.online is None

    def test_online_metrics_surface_in_registry(self, setup):
        config = setup.system_config(
            "ivqp", DiscountRates.symmetric(0.05),
            sync_interval_for_ratio(10.0), seed=1,
        )
        config.trace = True
        result = run_stream(
            config, "ivqp", setup.queries()[:4], mean_interarrival=6.0,
            online=True,
            online_config=OnlineConfig(window=10.0, max_pending=8),
        )
        counters = result.system.metrics()["counters"]
        stats = result.online.stats
        assert stats.admitted == 4 and stats.windows > 0
        for counter, value in (
            ("mqo.admitted", stats.admitted),
            ("mqo.shed", stats.shed),
            ("mqo.windows", stats.windows),
        ):
            assert counters.get(counter, 0.0) == value, counter


class TestCheckerOnlineRules:
    def _record(self, kind, subject, time=0.0, **detail) -> TraceRecord:
        return TraceRecord(time=time, kind=kind, subject=subject, detail=detail)

    def test_window_indices_must_increase(self):
        records = [
            self._record(events.MQO_WINDOW, "window:0", index=0, order=[]),
            self._record(events.MQO_WINDOW, "window:0", index=0, order=[]),
        ]
        violations = TraceChecker().check(records)
        assert any(v.rule == "window-monotonic" for v in violations)

    def test_window_order_requires_prior_admission(self):
        records = [
            self._record(events.MQO_WINDOW, "window:0", index=0, order=[7]),
        ]
        violations = TraceChecker().check(records)
        assert any(v.rule == "window-order-admitted" for v in violations)

    def test_shed_then_admit_flagged(self):
        records = [
            self._record(events.MQO_SHED, "q", qid=1, bound=0.0, floor=0.5),
            self._record(events.MQO_ADMIT, "q", qid=1),
        ]
        violations = TraceChecker().check(records)
        assert any(v.rule == "admit-shed-exclusive" for v in violations)

    def test_double_admit_without_requeue_flagged(self):
        records = [
            self._record(events.MQO_ADMIT, "q", qid=1, requeued=False),
            self._record(events.MQO_ADMIT, "q", qid=1, requeued=False),
        ]
        violations = TraceChecker().check(records)
        assert any(v.rule == "admit-unique" for v in violations)

    def test_requeued_admission_is_legal(self):
        records = [
            self._record(events.MQO_ADMIT, "q", qid=1, requeued=False),
            self._record(events.MQO_ADMIT, "q", qid=1, requeued=True),
            self._record(
                events.MQO_WINDOW, "window:0", index=0, order=[1]
            ),
        ]
        assert TraceChecker().check(records) == []

    def test_shed_query_must_not_execute(self):
        records = [
            self._record(events.MQO_SHED, "q", qid=1, bound=0.0, floor=0.5),
            self._record(events.EXEC_START, "q", time=1.0, qid=1),
            self._record(events.COMPLETE, "q", time=2.0, qid=1),
        ]
        checker = TraceChecker(require_complete=False)
        violations = checker.check(records)
        assert any(v.rule == "shed-no-exec" for v in violations)


class TestOnlineStats:
    def test_defaults_are_zero(self):
        stats = OnlineStats()
        assert stats.submitted == stats.dispatched == stats.windows == 0
        assert stats.reopt_seconds == 0.0


class TestReoptAccounting:
    """Regression: re-optimization time is booked through the Clock seam.

    The window pass used to read the module-level ``perf_counter()``
    directly; under a :class:`~repro.sim.clocks.WallClock` that
    double-booked the cost (once as ``reopt_seconds``, again as stream
    latency measured by the same timer).  It now reads
    ``clock.perf_seconds()`` — provable with a clock whose perf counter
    is synthetic.
    """

    def test_reopt_seconds_are_read_from_the_session_clock(self):
        from repro.sim.clocks import SimClock

        class CountingClock(SimClock):
            # Every reading advances exactly 0.5 synthetic seconds, so
            # each window's (end - began) pair books exactly 0.5 — a
            # total only reachable through *this* clock.
            def __init__(self):
                super().__init__()
                self.readings = 0

            def perf_seconds(self):
                self.readings += 1
                return self.readings * 0.5

        scheduler = build_online()
        workload = burst_workload(count=4)
        clock = CountingClock()
        session = scheduler.session(workload, clock)
        session.push_arrivals()
        drive(session, clock)
        stats = session.stats
        assert stats.windows > 0 and clock.readings >= 2 * stats.windows
        assert stats.reopt_seconds == pytest.approx(0.5 * stats.windows)
        assert all(
            record.reopt_seconds == pytest.approx(0.5)
            for record in session.decision.windows
        )

    @pytest.mark.slow
    def test_ext4_numbers_unchanged_under_simclock(self):
        # The committed BENCH_online.json was produced by the
        # pre-refactor scheduler; the clock-agnostic session must realize
        # the exact same online total IV on the same reduced EXT4 stream.
        import json
        from pathlib import Path

        from repro.experiments.fig9 import Fig9Config, build_mqo_scheduler
        from repro.experiments.runner import reissue_stream
        from repro.workload.arrival import poisson_arrivals
        from repro.workload.generator import random_queries

        baseline = json.loads(Path("BENCH_online.json").read_text())

        scheduler, setup = build_mqo_scheduler(
            Fig9Config(ga=GAConfig(generations=30))
        )
        templates = random_queries(setup.instance, count=8, seed=23)
        stream = reissue_stream(templates, rounds=2)
        arrivals = poisson_arrivals(1.0, len(stream), seed=7)
        workload = Workload.from_queries(stream, arrivals=arrivals)
        online = OnlineMQOScheduler(
            scheduler.catalog,
            scheduler.cost_provider,
            scheduler.default_rates,
            ga_config=GAConfig(generations=20),
            seed=scheduler.seed,
            config=OnlineConfig(window=4.0, max_pending=16, iv_floor=0.02),
        )
        decision = online.run(workload)
        assert decision.total_information_value == pytest.approx(
            baseline["total_iv"]["online"], abs=1e-9,
        )


class TestRangeCache:
    """Regression: ranges were re-derived from candidates every pass.

    ``execution_ranges`` used to re-derive the candidate set of
    every pending query on *every* window pass (and ``dispatch`` probed
    candidates per event); ranges now come from
    :meth:`WorkloadEvaluator.range_of`, derived once per query and kept
    for the evaluator's lifetime.
    """

    def test_candidates_derived_once_per_query(self, monkeypatch):
        from repro.mqo.evaluator import WorkloadEvaluator

        calls: list[int] = []
        original = WorkloadEvaluator._lower

        def counting(self, query_id):
            calls.append(query_id)
            return original(self, query_id)

        monkeypatch.setattr(WorkloadEvaluator, "_lower", counting)
        scheduler = build_online(
            OnlineConfig(window=0.3, max_pending=16, eager_start=False)
        )
        decision = scheduler.run(burst_workload(count=6, gap=0.4))
        # Several passes ran, yet each query's candidate set was derived
        # exactly once (lowered at admission) — not once per pass, and not
        # again after dispatch evicted its records.
        assert decision.stats.windows >= 2
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    def test_range_of_survives_rebase(self):
        from repro.federation.site import LOCAL_SITE_ID
        from repro.mqo.evaluator import WorkloadEvaluator

        from tests.mqo_batch_oracle import execution_ranges

        catalog = build_catalog()
        cost_model = CostModel(catalog, params=CostParameters())
        workload = burst_workload(count=4)
        evaluator = WorkloadEvaluator(
            catalog, cost_model, DiscountRates.symmetric(0.1), workload
        )
        before = execution_ranges(evaluator)
        # Rebasing onto committed mid-stream state must not invalidate
        # the range cache: ranges depend only on arrival and the
        # immutable candidate set, never on server availability.
        evaluator.rebase({LOCAL_SITE_ID: 123.0, 1: 99.0})
        after = execution_ranges(evaluator)
        assert after == before
        for rng in before:
            assert rng.start == workload.arrival_of(rng.query_id)
            assert rng.end > rng.start


class TestHotPathFixes:
    """Regressions for the admission/dispatch hot-path audit."""

    def test_dispatch_never_replays_candidates_naively(self, monkeypatch):
        # The dispatcher probed the plan head by realizing every
        # candidate with the naive ``_realize`` loop on every event; it
        # now goes through the compiled choice path.
        from repro.mqo.evaluator import WorkloadEvaluator

        calls: list[int] = []
        original = WorkloadEvaluator._realize

        def counting(self, compiled, candidate, free_at):
            calls.append(1)
            return original(self, compiled, candidate, free_at)

        monkeypatch.setattr(WorkloadEvaluator, "_realize", counting)
        scheduler = build_online(OnlineConfig(window=2.0, max_pending=16))
        decision = scheduler.run(burst_workload(count=6))
        assert decision.stats.dispatched == 6
        assert calls == []

    def test_choose_best_matches_naive_candidate_scan(self):
        from repro.mqo.evaluator import WorkloadEvaluator

        from tests.mqo_naive_oracle import best_naive

        catalog = build_catalog()
        cost_model = CostModel(catalog, params=CostParameters())
        workload = burst_workload(count=5)
        evaluator = WorkloadEvaluator(
            catalog, cost_model, DiscountRates.symmetric(0.1), workload
        )
        for free_at in ({}, {0: 3.0}, {0: 7.5, 1: 4.0, 2: 9.0}):
            for query in workload.queries:
                b = best_naive(evaluator, query.query_id, dict(free_at))
                a = evaluator.choose_best(query.query_id, dict(free_at))
                assert a.plan is b.plan
                assert a.begin == b.begin
                assert a.completed == b.completed
                assert a.data_timestamp == b.data_timestamp
                assert a.information_value == b.information_value
        # Repeated probes under unchanged clocks hit the choice memo.
        before = evaluator.stats.choice_hits
        evaluator.choose_best(1, {0: 3.0})
        evaluator.choose_best(1, {0: 3.0})
        assert evaluator.stats.choice_hits >= before + 1

    def test_rebase_noop_preserves_prefix_trie(self):
        from repro.mqo.evaluator import WorkloadEvaluator

        catalog = build_catalog()
        cost_model = CostModel(catalog, params=CostParameters())
        workload = burst_workload(count=4)
        evaluator = WorkloadEvaluator(
            catalog, cost_model, DiscountRates.symmetric(0.1), workload
        )
        evaluator.rebase({0: 2.0})
        evaluator.evaluate_sequence([1, 2, 3])
        warm = evaluator.stats.trie_entries
        assert warm > 0
        # Same base: the trie (a pure function of the base) must survive.
        evaluator.rebase({0: 2.0})
        assert evaluator.stats.trie_entries == warm
        # Different base: cached prefixes are stale and must go.
        evaluator.rebase({0: 5.0})
        assert evaluator.stats.trie_entries == 0

    def test_deferred_requeue_preserves_fifo_order(self):
        scheduler = build_online(
            OnlineConfig(window=1.0, max_pending=2, eager_start=False)
        )
        decision = scheduler.run(burst_workload(count=8, gap=0.05))
        session_log = [
            entry for entry in _decisions_of(scheduler, count=8)
        ]
        deferred = [qid for kind, qid in session_log if kind == "defer"]
        requeued = [qid for kind, qid in session_log if kind == "requeue"]
        assert deferred, "scenario must actually overflow the queue"
        assert requeued == deferred
        assert sorted(decision.permutation) == list(range(1, 9))

    def test_decision_log_is_deterministic_under_arrival_ties(self):
        # Depth audit: identical reruns over a stream with tied arrivals
        # must produce identical decision logs (admission order, window
        # orders, dispatch times).
        workload = Workload()
        for index in range(10):
            workload.add(
                DSSQuery(
                    query_id=index + 1, name=f"q{index + 1}",
                    tables=(f"t{index % 6}", f"t{(index + 1) % 6}"),
                    base_work=8_000.0,
                ),
                arrival=1.0 + 0.25 * (index // 2),  # pairs tie exactly
            )
        logs = []
        for _ in range(2):
            scheduler = build_online(
                OnlineConfig(window=0.5, max_pending=4, eager_start=False)
            )
            logs.append(_run_collecting_decisions(scheduler, workload))
        assert logs[0] == logs[1]

    def test_group_index_drains_with_the_plan(self):
        from repro.sim.clocks import SimClock

        scheduler = build_online(OnlineConfig(window=2.0, max_pending=16))
        workload = burst_workload(count=6)
        clock = SimClock()
        session = scheduler.session(workload, clock)
        session.push_arrivals()
        drive(session, clock)
        # Every admitted range was retired when its query dispatched.
        assert len(session.group_index) == 0
        assert session.group_index.groups() == []
        assert session.stats.dispatched == 6


def _run_collecting_decisions(scheduler, workload):
    from repro.sim.clocks import SimClock

    clock = SimClock()
    session = scheduler.session(workload, clock)
    session.push_arrivals()
    drive(session, clock)
    return list(session.decisions)


def _decisions_of(scheduler, count):
    workload = burst_workload(count=count, gap=0.05)
    return [
        entry
        for entry in _run_collecting_decisions(scheduler, workload)
        if entry[0] in {"defer", "requeue"}
    ]


class TestIncrementalGroupsMatchSweep:
    """Every pass's incremental conflict groups are the sweep line's.

    The online loop only ever reads the incremental index; this wraps
    :meth:`IncrementalConflictGroups.groups` and recomputes the full sweep
    over the pending set at every pass of real runs.
    """

    @pytest.mark.parametrize("config, workload", [
        (OnlineConfig(window=0.5, max_pending=4, eager_start=False),
         lambda: burst_workload(count=8, gap=0.1)),
        (OnlineConfig(window=2.0, max_pending=16),
         lambda: burst_workload(count=12, gap=0.3)),
        (OnlineConfig(window=1.0, max_pending=2, eager_start=False),
         lambda: burst_workload(count=8, gap=0.05)),
    ], ids=["windowed", "eager", "deferring"])
    def test_every_pass_equals_the_sweep(self, monkeypatch, config, workload):
        from repro.mqo.conflict import IncrementalConflictGroups

        from tests.mqo_batch_oracle import conflict_groups, execution_ranges

        sessions = []
        open_session = OnlineMQOScheduler.session
        groups = IncrementalConflictGroups.groups
        checked = []

        def recording_session(self, *args):
            sessions.append(open_session(self, *args))
            return sessions[-1]

        def swept_groups(index):
            incremental = groups(index)
            [session] = sessions
            assert index is session.group_index
            assert incremental == conflict_groups(execution_ranges(
                session.evaluator, query_ids=session._pending_ids()
            ))
            checked.append(incremental)
            return incremental

        monkeypatch.setattr(OnlineMQOScheduler, "session", recording_session)
        monkeypatch.setattr(IncrementalConflictGroups, "groups", swept_groups)
        decision = build_online(config).run(workload())
        assert len(checked) == decision.stats.windows > 1
        assert any(len(group) > 1 for passed in checked for group in passed)


class TestDriver:
    """``step`` / ``drive``: the one way an online session is driven."""

    @staticmethod
    def session():
        from repro.sim.clocks import SimClock

        clock = SimClock()
        session = build_online(
            OnlineConfig(window=2.0, max_pending=16)
        ).session(burst_workload(count=6), clock)
        session.push_arrivals()
        return session, clock

    def test_without_observers_no_ledger_is_built(self, monkeypatch):
        from repro.mqo import online

        def refuse(*args, **kwargs):
            raise AssertionError("ledger built with nobody observing")

        monkeypatch.setattr(online, "completion_ledger", refuse)
        monkeypatch.setattr(online.OnlineSession, "completion_ledger", refuse)
        session, clock = self.session()
        completions = 0
        while clock:
            now, tag, payload = clock.pop()
            step(session, now, tag, payload)
            completions += tag == "completion"
        assert completions == session.stats.dispatched == 6
        drive(*self.session())  # and the driver never asks for one either

    def test_observers_see_every_pop_in_order_with_its_ledger(self):
        seen = []

        class Recorder(SessionObserver):
            def __init__(self, name):
                self.name = name

            def before_pop(self, session, now, tag, payload):
                seen.append((self.name, "before", tag, payload))

            def after_pop(self, session, now, tag, payload, outcome, ledger):
                seen.append((self.name, "after", tag, payload, outcome,
                             None if ledger is None else ledger.query_id))

            def finish(self, session):
                seen.append((self.name, "finish"))

        session, clock = self.session()
        drive(session, clock, [Recorder("a"), Recorder("b")])
        assert seen[-2:] == [("a", "finish"), ("b", "finish")]
        pops = seen[:-2]
        assert len(pops) % 4 == 0
        for index in range(0, len(pops), 4):
            a_before, b_before, a_after, b_after = pops[index:index + 4]
            assert (a_before[0], b_before[0]) == ("a", "b")
            assert a_before[1:] == b_before[1:]
            assert a_after[1:] == b_after[1:]
            _, _, tag, payload, outcome, ledger_qid = a_after
            assert outcome == ("admitted" if tag == "arrival" else None)
            assert ledger_qid == (payload if tag == "completion" else None)
        ledgers = [entry[5] for entry in pops if entry[0] == "a"
                   and entry[1] == "after" and entry[5] is not None]
        assert sorted(ledgers) == [1, 2, 3, 4, 5, 6]

    def test_a_sleeping_chain_wakes_on_the_lattice(self):
        from repro.sim.clocks import SimClock

        windows = []

        class Windows(SessionObserver):
            def before_pop(self, session, now, tag, payload):
                if tag == "window":
                    windows.append(now)

        clock = SimClock()
        session = build_online(OnlineConfig(window=0.3)).session(
            burst_workload(count=2, gap=40.0), clock
        )
        session.push_arrivals()
        drive(session, clock, [Windows()])
        lattice = [1.0 + 0.3]
        while lattice[-1] < windows[-1]:
            lattice.append(lattice[-1] + 0.3)
        # Every window is a float a never-sleeping chain would have pushed,
        # the chain slept between the arrivals, and it woke at the first
        # lattice point at or after the second one (at 41.0).
        assert set(windows) <= set(lattice)
        assert len(windows) < len(lattice) / 2
        assert min(at for at in windows if at >= 41.0) == min(
            at for at in lattice if at >= 41.0
        )
        assert not session.ticking and not clock

    def test_pending_work_with_an_empty_clock_is_an_error(self):
        from repro.sim.clocks import SimClock

        clock = SimClock()
        session = build_online(
            OnlineConfig(window=2.0, eager_start=False)
        ).session(burst_workload(count=2), clock)
        # Admitted behind the clock's back: no window will ever plan it.
        session.submit(1, 0.0)
        with pytest.raises(OptimizationError, match="pending"):
            drive(session, clock)

    def test_lifecycle_trace_is_checker_clean_and_decides_nothing(self):
        tracer_clock = {"now": 0.0}
        tracer = Tracer(lambda: tracer_clock["now"])

        class Stamp(SessionObserver):
            def before_pop(self, session, now, tag, payload):
                tracer_clock["now"] = now

        session, clock = self.session()
        session.scheduler.tracer = tracer
        drive(session, clock, [Stamp(), LifecycleTrace(tracer)])
        plain, plain_clock = self.session()
        drive(plain, plain_clock)
        assert session.decisions == plain.decisions
        assert TraceChecker().check(tracer.records) == []
        kinds = [record.kind for record in tracer.records]
        for kind in (events.SUBMIT, events.PLAN, events.EXEC_START,
                     events.COMPLETE, events.LEDGER):
            assert kinds.count(kind) == 6, kind
