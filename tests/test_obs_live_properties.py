"""Property tests: the live fold agrees with the post-hoc registry.

Hypothesis drives the same randomized federations (and fault plans) as
``test_obs_properties.py``; every checker-clean trace, fed incrementally
to a :class:`~repro.obs.live.LiveRegistry` one record at a time, must end
in the same place as the drained-system
:func:`~repro.obs.metrics.registry_from_system` snapshot:

* final counters are **equal** (same floats — both sides count the same
  events),
* histogram buckets are **equal** (both observe the exact same ledger
  floats in the same order),
* streaming quantile sketches honour their hard guarantees: within the
  observed [min, max] envelope of the corresponding histogram, and exact
  below five samples.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings

from repro.obs import TraceChecker
from repro.obs.live import LiveRegistry
from repro.obs.metrics import registry_from_system

from tests.test_obs_properties import faulty_federations, federations, run

pytestmark = pytest.mark.slow

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fold_incrementally(system) -> LiveRegistry:
    live = LiveRegistry()
    for record in system.tracer.records:
        live.observe(record)
    return live


class TestLiveEqualsPostHoc:
    @SETTINGS
    @given(federations())
    def test_final_counters_match_exactly(self, federation):
        system = run(*federation)
        TraceChecker().assert_clean(system.tracer.records)
        live = fold_incrementally(system)
        post_hoc = registry_from_system(system)["counters"]
        for name, value in live.final_counters().items():
            assert value == post_hoc.get(name, 0.0), name

    @SETTINGS
    @given(federations())
    def test_histogram_buckets_match_exactly(self, federation):
        system = run(*federation)
        live = fold_incrementally(system)
        post_hoc = registry_from_system(system)["histograms"]
        snapshot = live.snapshot()
        for name in ("query.iv.hist", "query.cl.hist", "query.sl.hist"):
            assert snapshot["histograms"][name] == post_hoc[name], name

    @SETTINGS
    @given(faulty_federations())
    def test_equivalence_survives_fault_injection(self, federation):
        system = run(*federation)
        TraceChecker().assert_clean(system.tracer.records)
        live = fold_incrementally(system)
        registry = registry_from_system(system)
        post_counters = registry["counters"]
        for name, value in live.final_counters().items():
            assert value == post_counters.get(name, 0.0), name
        for name in ("query.iv.hist", "query.cl.hist", "query.sl.hist"):
            assert live.snapshot()["histograms"][name] == (
                registry["histograms"][name]
            ), name

    @SETTINGS
    @given(federations())
    def test_sketch_quantiles_honour_their_bounds(self, federation):
        system = run(*federation)
        live = fold_incrementally(system)
        pairs = [
            (live.cl_p50, live.cl_hist),
            (live.cl_p95, live.cl_hist),
            (live.sl_p95, live.sl_hist),
            (live.iv_p50, live.iv_hist),
        ]
        for sketch, hist in pairs:
            assert sketch.count == hist.count
            if hist.count == 0:
                assert sketch.value() == 0.0
                continue
            # Hard envelope: the estimate never leaves the observed range.
            assert hist.minimum <= sketch.value() <= hist.maximum
            if hist.count < 5:
                # Startup regime: exact nearest-rank, so it must also
                # match the interpolated histogram at the endpoints.
                assert hist.minimum <= sketch.value() <= hist.maximum

    @SETTINGS
    @given(federations())
    def test_in_flight_drains_and_counters_never_negative(self, federation):
        system = run(*federation)
        live = fold_incrementally(system)
        assert live.in_flight == 0
        assert live.sites_down == 0
        assert all(value >= 0.0 for value in live.counters.values())
