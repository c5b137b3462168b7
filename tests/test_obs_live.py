"""Unit tests: streaming aggregators and the live registry fold."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.obs import events
from repro.obs.live import (
    EwmaMean,
    EwmaRate,
    LiveRegistry,
    P2Quantile,
    WindowCounter,
)
from repro.baselines import ivqp_router
from repro.core.value import DiscountRates
from repro.federation.system import SystemConfig, TableSpec, build_system
from repro.obs.metrics import registry_from_system
from repro.sim.trace import TraceRecord
from repro.workload.query import DSSQuery

from tests.test_obs_checker import traced_system


class TestEwmaRate:
    def test_steady_stream_converges_to_true_rate(self):
        # 4 events/minute for long enough that the decayed sum settles.
        rate = EwmaRate(half_life=10.0)
        time = 0.0
        for _ in range(2_000):
            time += 0.25
            rate.observe(time)
        assert rate.rate(time) == pytest.approx(4.0, rel=0.02)

    def test_rate_decays_toward_zero_when_quiet(self):
        rate = EwmaRate(half_life=5.0)
        rate.observe(1.0)
        busy = rate.rate(1.0)
        assert rate.rate(6.0) == pytest.approx(busy / 2.0)
        assert rate.rate(101.0) == pytest.approx(0.0, abs=1e-6)

    def test_half_life_validation(self):
        with pytest.raises(SimulationError):
            EwmaRate(half_life=0.0)


class TestEwmaMean:
    def test_mean_weights_recent_values_more(self):
        mean = EwmaMean(half_life=1.0)
        mean.observe(0.0, 0.0)
        mean.observe(10.0, 100.0)
        # The old zero has decayed to 1/1024 of the new weight.
        assert mean.mean() > 99.0

    def test_empty_mean_is_zero(self):
        assert EwmaMean(half_life=1.0).mean() == 0.0

    def test_constant_stream_is_exact(self):
        mean = EwmaMean(half_life=3.0)
        for time in range(10):
            mean.observe(float(time), 7.5)
        assert mean.mean() == pytest.approx(7.5)


class TestWindowCounter:
    def test_counts_only_inside_window(self):
        counter = WindowCounter(window=10.0)
        for time in (1.0, 5.0, 9.0, 14.0):
            counter.observe(time)
        # (4, 14]: 5.0 stays (strictly inside), 1.0 fell out.
        assert counter.count(14.0) == 3
        assert counter.count(30.0) == 0

    def test_rate_is_count_over_window(self):
        counter = WindowCounter(window=4.0)
        for time in (1.0, 2.0, 3.0):
            counter.observe(time)
        assert counter.rate(3.0) == pytest.approx(0.75)

    def test_window_validation(self):
        with pytest.raises(SimulationError):
            WindowCounter(window=-1.0)


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        sketch = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            sketch.observe(value)
        assert sketch.value() == 3.0  # nearest-rank median of {1, 3, 5}
        assert sketch.count == 3

    def test_empty_sketch_reads_zero(self):
        assert P2Quantile(0.9).value() == 0.0

    def test_constant_stream_is_exact(self):
        sketch = P2Quantile(0.95)
        for _ in range(100):
            sketch.observe(42.0)
        assert sketch.value() == 42.0

    def test_estimate_always_within_observed_range(self):
        rng = random.Random(7)
        sketch = P2Quantile(0.95)
        values = [rng.lognormvariate(0.0, 1.5) for _ in range(500)]
        for value in values:
            sketch.observe(value)
        assert min(values) <= sketch.value() <= max(values)

    def test_typical_accuracy_on_uniform_stream(self):
        rng = random.Random(11)
        sketch = P2Quantile(0.5)
        for _ in range(5_000):
            sketch.observe(rng.uniform(0.0, 100.0))
        assert sketch.value() == pytest.approx(50.0, abs=5.0)

    def test_q_validation(self):
        with pytest.raises(SimulationError):
            P2Quantile(0.0)
        with pytest.raises(SimulationError):
            P2Quantile(1.0)


class TestLiveRegistry:
    @pytest.fixture(scope="class")
    def run(self):
        system = traced_system(num_queries=3)
        registry = LiveRegistry()
        for record in system.tracer.records:
            registry.observe(record)
        return system, registry

    def test_final_counters_match_post_hoc_registry(self, run):
        system, live = run
        post_hoc = registry_from_system(system)["counters"]
        for name, value in live.final_counters().items():
            assert value == post_hoc.get(name, 0.0), name

    def test_histogram_buckets_match_post_hoc_registry(self, run):
        system, live = run
        post_hoc = registry_from_system(system)["histograms"]
        snapshot = live.snapshot()
        for name in ("query.iv.hist", "query.cl.hist", "query.sl.hist"):
            assert snapshot["histograms"][name] == post_hoc[name], name

    def test_in_flight_returns_to_zero(self, run):
        _system, live = run
        assert live.in_flight == 0
        assert live.sites_down == 0
        assert live.outage_dwell() == 0.0

    def test_snapshot_structure(self, run):
        _system, live = run
        snapshot = live.snapshot()
        assert set(snapshot) == {
            "time", "counters", "gauges", "rates", "quantiles", "histograms",
            "tables",
        }
        assert snapshot["counters"]["query.submitted"] == 3
        assert snapshot["gauges"]["query.in_flight"] == 0
        assert snapshot["quantiles"]["query.cl.p50"] > 0.0

    def test_attach_subscribes_to_live_records(self):
        # Feed via subscription while the run executes, then replay the
        # retained trace into a second registry; the two folds must agree.
        config = SystemConfig(
            tables=[
                TableSpec("a", site=0, row_count=1_000),
                TableSpec("b", site=1, row_count=2_000),
            ],
            replicated=["a"],
            sync_mode="periodic",
            sync_mean_interval=4.0,
            rates=DiscountRates(0.02, 0.02),
            trace=True,
            seed=2,
        )
        system = build_system(config, ivqp_router)
        live = LiveRegistry().attach(system.tracer)
        system.submit(DSSQuery(query_id=1, name="q", tables=("a", "b")), at=2.0)
        system.run()
        replayed = LiveRegistry()
        for record in system.tracer.records:
            replayed.observe(record)
        assert live.snapshot() == replayed.snapshot()

    def test_iv_realization_tracks_plan_vs_outcome(self):
        live = LiveRegistry()
        live.observe(TraceRecord(0.0, events.SUBMIT, "q", {"qid": 1}))
        live.observe(TraceRecord(0.0, events.PLAN, "q", {"qid": 1, "est_iv": 0.8}))
        live.observe(TraceRecord(1.0, events.COMPLETE, "q", {"qid": 1, "iv": 0.4}))
        assert live.iv_realization_ratio() == pytest.approx(0.5)
        assert live.in_flight == 0

    def test_realization_is_one_before_any_completion(self):
        assert LiveRegistry().iv_realization_ratio() == 1.0

    def test_shed_ratio_counts_shed_against_arrivals(self):
        live = LiveRegistry(window=10.0)
        live.observe(TraceRecord(1.0, events.SUBMIT, "a", {"qid": 1}))
        live.observe(TraceRecord(1.5, events.MQO_SHED, "b", {"qid": 2}))
        live.observe(TraceRecord(2.0, events.SUBMIT, "c", {"qid": 3}))
        assert live.shed_ratio(2.0) == pytest.approx(1.0 / 3.0)
        # The window forgets: far in the future the ratio reads quiet.
        assert live.shed_ratio(100.0) == 0.0

    def test_outage_dwell_follows_fault_edges(self):
        live = LiveRegistry()
        live.observe(TraceRecord(5.0, events.FAULT_DOWN, "site:1", {}))
        assert live.sites_down == 1
        assert live.outage_dwell(9.0) == pytest.approx(4.0)
        live.observe(TraceRecord(10.0, events.FAULT_UP, "site:1", {}))
        assert live.sites_down == 0
        assert live.outage_dwell(11.0) == 0.0

    def test_malformed_ledger_counted_not_crashed(self):
        live = LiveRegistry()
        live.observe(TraceRecord(1.0, events.LEDGER, "q", {"query": "q"}))
        assert live.counters["ledger.malformed"] == 1
        assert "ledger.entries" not in live.counters

    def test_qos_staleness_threshold_counts_violations(self):
        live = LiveRegistry(qos_max_staleness=2.0)
        live.observe(TraceRecord(1.0, events.SYNC_APPLY, "a", {"gap": 1.0}))
        live.observe(TraceRecord(2.0, events.SYNC_APPLY, "a", {"gap": 5.0}))
        assert live.counters.get("sync.qos_violations") == 1
        assert live.staleness_mean() == pytest.approx(3.0)
