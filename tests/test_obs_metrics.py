"""Unit tests: the histogram and the post-hoc metrics snapshot."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import Histogram, registry_from_system


def drained_system():
    """Three queries through a small traced federation, drained."""
    from repro.baselines import ivqp_router
    from repro.core.value import DiscountRates
    from repro.federation.system import SystemConfig, TableSpec, build_system
    from repro.workload.query import DSSQuery

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
    for qid in range(3):
        system.submit(
            DSSQuery(query_id=qid, name=f"q{qid}", tables=("a", "b")),
            at=float(qid) * 5.0,
        )
    system.run()
    return system


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram("h", bounds=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        # <=1.0 -> bucket 0, <=5.0 -> bucket 1, beyond -> overflow.
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.minimum == 0.5 and hist.maximum == 100.0

    def test_mean_and_quantile(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.mean == pytest.approx(1.625)
        # target 2 lands halfway through the (1, 2] bucket -> interpolated.
        assert hist.quantile(0.5) == pytest.approx(1.5)
        # q=1 interpolates to the overflow bucket's top = the true maximum.
        assert hist.quantile(1.0) == pytest.approx(3.0)

    def test_quantile_interpolation_properties(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.2, 0.8, 1.5, 2.5, 3.5, 6.0):
            hist.observe(value)
        # Clamped to the observed range and monotone non-decreasing in q.
        grid = [i / 20 for i in range(21)]
        estimates = [hist.quantile(q) for q in grid]
        assert all(hist.minimum <= e <= hist.maximum for e in estimates)
        assert estimates == sorted(estimates)
        assert estimates[0] == hist.minimum
        assert estimates[-1] == hist.maximum

    def test_quantile_single_bucket_degrades_to_span(self):
        hist = Histogram("h", bounds=(10.0,))
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 2.0
        assert hist.quantile(1.0) == 6.0
        assert 2.0 <= hist.quantile(0.5) <= 6.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_quantile_validation(self):
        hist = Histogram("h", bounds=(1.0,))
        with pytest.raises(SimulationError):
            hist.quantile(1.5)
        with pytest.raises(SimulationError):
            hist.quantile(0.5)  # empty

    def test_snapshot_shape(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["min"] == 0.5 and snapshot["max"] == 0.5


class TestRegistry:
    def test_ingest_counters_from_fault_stats(self):
        from repro.experiments.trace_scenarios import trace_faults

        system = trace_faults()
        counters = registry_from_system(system)["counters"]
        for spec in dataclasses.fields(system.fault_stats):
            value = getattr(system.fault_stats, spec.name)
            assert counters[f"faults.{spec.name}"] == value
            assert type(counters[f"faults.{spec.name}"]) is float

    def test_observe_monitor_publishes_aggregates(self):
        system = drained_system()
        gauges = registry_from_system(system)["gauges"]
        monitor = system.iv_monitor
        assert gauges["query.iv.count"] == monitor.count == 3
        assert gauges["query.iv.mean"] == monitor.mean
        assert gauges["query.iv.stddev"] == monitor.stddev
        assert gauges["query.iv.min"] == monitor.minimum
        assert gauges["query.iv.max"] == monitor.maximum

    def test_to_json_is_valid_and_sorted(self):
        snapshot = registry_from_system(drained_system())
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        for family in snapshot.values():
            assert list(family) == sorted(family)


class TestSystemRegistry:
    def test_registry_from_traced_system(self):
        system = drained_system()
        snapshot = registry_from_system(system)
        assert snapshot["counters"]["query.completed"] == 3
        assert snapshot["counters"]["sync.total"] == system.replication.total_syncs
        assert snapshot["counters"]["trace.records"] == len(system.tracer)
        # Nothing was evicted in this run; the drop counter is exposed so
        # dashboards (and the checker) can see when a capacity-bounded
        # tracer lost its prefix.
        assert snapshot["counters"]["tracer.dropped_events"] == 0
        assert snapshot["gauges"]["query.iv.count"] == 3
        assert snapshot["histograms"]["query.cl.hist"]["count"] == 3
        # system.metrics() is the same snapshot behind a method.
        assert system.metrics() == snapshot
