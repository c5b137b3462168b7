"""Unit and property tests: statistics monitors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.monitor import Monitor


class TestMonitor:
    def test_empty_monitor_defaults(self):
        monitor = Monitor()
        assert monitor.count == 0
        assert monitor.mean == 0.0
        assert monitor.variance == 0.0

    def test_mean_min_max_total(self):
        monitor = Monitor()
        for value in (1.0, 2.0, 3.0, 4.0):
            monitor.observe(value)
        assert monitor.mean == pytest.approx(2.5)
        assert monitor.minimum == 1.0
        assert monitor.maximum == 4.0
        assert monitor.total == pytest.approx(10.0)

    def test_single_observation_has_zero_variance(self):
        monitor = Monitor()
        monitor.observe(5.0)
        assert monitor.variance == 0.0
        assert monitor.stddev == 0.0

    def test_percentile_interpolates(self):
        monitor = Monitor(keep_values=True)
        for value in (10.0, 20.0, 30.0, 40.0):
            monitor.observe(value)
        assert monitor.percentile(0) == 10.0
        assert monitor.percentile(100) == 40.0
        assert monitor.percentile(50) == pytest.approx(25.0)

    def test_percentile_of_empty_raises(self):
        with pytest.raises(SimulationError):
            Monitor(keep_values=True).percentile(50)

    def test_percentile_out_of_range_raises(self):
        monitor = Monitor(keep_values=True)
        monitor.observe(1.0)
        with pytest.raises(SimulationError):
            monitor.percentile(101)

    def test_retention_is_opt_in(self):
        # Regression (unbounded memory): the default monitor must not
        # buffer raw samples at all.
        monitor = Monitor()
        for value in range(1_000):
            monitor.observe(float(value))
        assert len(monitor.values) == 0
        assert monitor.values == []
        with pytest.raises(SimulationError):
            monitor.percentile(50)

    def test_capped_retention_stays_bounded(self):
        monitor = Monitor(keep_values=True, cap=64)
        for value in range(10_000):
            monitor.observe(float(value))
        assert monitor.count == 10_000
        assert 0 < len(monitor.values) <= 64
        # The subsample is evenly spaced from the start of the run.
        kept = monitor.values
        assert kept[0] == 0.0
        strides = {b - a for a, b in zip(kept, kept[1:])}
        assert len(strides) == 1
        # Percentiles stay close on the thinned buffer.
        assert monitor.percentile(50) == pytest.approx(5_000, rel=0.05)

    def test_million_observation_run_stays_bounded(self):
        # Satellite regression: a million observations must not accumulate
        # a million floats, with or without retention.
        bare = Monitor()
        capped = Monitor(keep_values=True, cap=1_024)
        for value in range(1_000_000):
            sample = float(value % 97)
            bare.observe(sample)
            capped.observe(sample)
        assert len(bare.values) == 0
        assert len(capped.values) <= 1_024
        assert bare.count == capped.count == 1_000_000
        assert bare.mean == pytest.approx(48.0, rel=0.01)

    def test_cap_validation(self):
        with pytest.raises(SimulationError):
            Monitor(keep_values=True, cap=1)

    def test_merge_combines_statistics(self):
        a, b = Monitor(), Monitor()
        for value in (1.0, 2.0):
            a.observe(value)
        for value in (3.0, 4.0, 5.0):
            b.observe(value)
        a.merge(b)
        assert a.count == 5
        assert a.mean == pytest.approx(3.0)
        assert a.minimum == 1.0
        assert a.maximum == 5.0

    def test_merge_into_empty(self):
        a, b = Monitor(), Monitor()
        b.observe(7.0)
        a.merge(b)
        assert a.count == 1
        assert a.mean == 7.0


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=60,
    )
)
def test_welford_matches_numpy(values):
    monitor = Monitor(keep_values=True)
    for value in values:
        monitor.observe(value)
    assert monitor.mean == pytest.approx(float(np.mean(values)), abs=1e-6, rel=1e-9)
    assert monitor.variance == pytest.approx(
        float(np.var(values, ddof=1)), abs=1e-4, rel=1e-6
    )


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=30),
    right=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=30),
)
def test_merge_equals_observing_everything(left, right):
    merged = Monitor()
    for value in left:
        merged.observe(value)
    other = Monitor()
    for value in right:
        other.observe(value)
    merged.merge(other)

    direct = Monitor()
    for value in left + right:
        direct.observe(value)
    assert merged.count == direct.count
    assert merged.mean == pytest.approx(direct.mean, abs=1e-6, rel=1e-9)
    assert merged.variance == pytest.approx(direct.variance, abs=1e-3, rel=1e-6)
