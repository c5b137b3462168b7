"""Unit tests: the histogram and a system's metrics, the fold of its trace."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs.metrics import Histogram


def drained_system(trace: bool = True):
    """Three queries through a small federation (traced by default),
    drained."""
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
        trace=trace,
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
    def test_sync_counters_match_the_replication_manager(self):
        from repro.experiments.trace_scenarios import trace_faults

        system = trace_faults()
        counters = system.metrics()["counters"]
        manager = system.replication
        # The fold counts from the trace what the manager counted live.
        assert counters["sync.skipped"] == manager.syncs_skipped > 0
        assert counters["sync.delayed"] == manager.syncs_delayed > 0
        assert counters["faults.outages"] == sum(
            1 for _ in system.tracer.filter(kind="fault.down")
        )

    def test_histograms_publish_aggregates(self):
        system = drained_system()
        histogram = system.metrics()["histograms"]["query.iv.hist"]
        values = [o.information_value for o in system.outcomes]
        assert histogram["count"] == len(values) == 3
        assert histogram["mean"] == system.mean_information_value
        assert histogram["min"] == min(values)
        assert histogram["max"] == max(values)

    def test_to_json_is_valid_and_sorted(self):
        snapshot = drained_system().metrics()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert set(snapshot) == {
            "time", "counters", "gauges", "rates", "quantiles", "histograms",
            "tables",
        }
        for family in (snapshot["counters"], snapshot["tables"]):
            assert list(family) == sorted(family)


class TestSystemRegistry:
    def test_registry_from_traced_system(self):
        system = drained_system()
        snapshot = system.metrics()
        assert snapshot["time"] == system.sim.now
        assert snapshot["counters"]["query.completed"] == 3
        assert snapshot["counters"]["ledger.entries"] == len(system.ledger)
        assert snapshot["counters"]["sync.total"] == system.replication.total_syncs
        assert snapshot["histograms"]["query.cl.hist"]["count"] == 3
        assert snapshot["tables"]["a"]["sync.table.syncs"] == (
            system.catalog.replica("a").sync_count
        )

    def test_untraced_system_is_refused(self):
        system = drained_system(trace=False)
        with pytest.raises(ConfigError, match=r"SystemConfig\(trace=True\)"):
            system.metrics()

    def test_tracer_that_dropped_records_is_refused(self):
        from repro.sim.trace import Tracer

        system = drained_system()
        tracer = Tracer(lambda: 0.0, capacity=1)
        tracer.emit("submit", "q0", qid=0)
        tracer.emit("submit", "q1", qid=1)
        assert tracer.dropped == 1
        system.tracer = tracer
        with pytest.raises(ConfigError, match=r"SystemConfig\(trace=True\)"):
            system.metrics()
