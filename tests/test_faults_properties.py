"""Property tests: fault plans and the fault-tolerant runtime.

Randomized seeds and fault intensities, with the invariants the rest of
the repro relies on: identical seeds give identical fault timelines,
timelines stay well-formed, and no injected fault can break value
accounting (IV bounded by BV, latencies nonnegative) or conservation
(every submitted query yields exactly one outcome).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ivqp_router
from repro.core.value import DiscountRates
from repro.federation.executor import ExecutionPolicy
from repro.federation.faults import FaultPlan
from repro.federation.system import SystemConfig, TableSpec, build_system
from repro.sim.faults import generate_outage_windows
from repro.sim.rng import RandomSource
from repro.workload.query import DSSQuery

SITE_IDS = (0, 1)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    outage_rate=st.floats(min_value=0.0, max_value=0.1),
    skip=st.floats(min_value=0.0, max_value=0.4),
    delay=st.floats(min_value=0.0, max_value=0.4),
)
def test_identical_seeds_identical_fault_timelines(
    seed, outage_rate, skip, delay
):
    kwargs = dict(
        horizon=300.0,
        site_ids=SITE_IDS,
        outage_rate=outage_rate,
        outage_mean_duration=5.0,
        sync_skip_prob=skip,
        sync_delay_prob=delay,
    )
    first = FaultPlan.generate(seed=seed, **kwargs)
    second = FaultPlan.generate(seed=seed, **kwargs)
    assert sorted(first.site_outages) == sorted(second.site_outages)
    for site, timeline in first.site_outages.items():
        assert timeline.windows == second.site_outages[site].windows
    # Dispositions agree point-for-point, not just distributionally.
    for time in (1.0, 17.5, 123.0):
        assert first.sync_disposition("a", 0, time) == second.sync_disposition(
            "a", 0, time
        )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rate=st.floats(min_value=0.001, max_value=0.2),
    mean_duration=st.floats(min_value=0.5, max_value=20.0),
    probes=st.lists(
        st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=6
    ),
)
def test_generated_timelines_are_well_formed(seed, rate, mean_duration, probes):
    timeline = generate_outage_windows(
        RandomSource(seed, "prop"), 300.0, rate, mean_duration
    )
    windows = timeline.windows
    # Disjoint, ordered, positive-length, inside the horizon.
    for window in windows:
        assert window.end > window.start >= 0.0
        assert window.start < 300.0
    for earlier, later in zip(windows, windows[1:]):
        assert later.start >= earlier.end
    for probe in probes:
        up = timeline.up_at(probe)
        assert up >= probe
        assert not timeline.is_down(up)
        nxt = timeline.next_down_after(probe)
        assert nxt >= probe
        if timeline.is_down(probe):
            assert nxt == probe


def _faulty_system(fault_seed, outage_rate, skip, delay):
    plan = FaultPlan.generate(
        seed=fault_seed,
        horizon=500.0,
        site_ids=SITE_IDS,
        outage_rate=outage_rate,
        outage_mean_duration=6.0,
        sync_skip_prob=skip,
        sync_delay_prob=delay,
        sync_delay_mean=2.0,
    )
    config = SystemConfig(
        tables=[
            TableSpec("a", site=0, row_count=20_000),
            TableSpec("b", site=1, row_count=20_000),
        ],
        replicated=["a"],
        sync_mode="periodic",
        sync_mean_interval=4.0,
        rates=DiscountRates(0.05, 0.05),
        local_capacity=2,
        seed=11,
        fault_plan=plan,
        execution_policy=ExecutionPolicy(
            max_retries=2, retry_backoff=0.2, failover=True
        ),
    )
    return build_system(config, ivqp_router)


@settings(max_examples=15, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**31),
    outage_rate=st.floats(min_value=0.0, max_value=0.08),
    skip=st.floats(min_value=0.0, max_value=0.5),
    delay=st.floats(min_value=0.0, max_value=0.4),
)
def test_no_fault_breaks_value_accounting_or_conservation(
    fault_seed, outage_rate, skip, delay
):
    system = _faulty_system(fault_seed, outage_rate, skip, delay)
    count = 6
    for index in range(count):
        tables = ("a", "b") if index % 2 == 0 else ("a",)
        system.submit(
            DSSQuery(
                query_id=index + 1, name=f"q{index}", tables=tables,
                business_value=100.0, base_work=6_000.0,
            ),
            at=1.0 + 2.0 * index,
        )
    system.run()
    outcomes = system.outcomes
    # Conservation: every submission yields exactly one outcome — failed
    # queries are recorded, never silently dropped.
    assert len(outcomes) == count
    assert sorted(o.query.name for o in outcomes) == sorted(
        f"q{i}" for i in range(count)
    )
    for outcome in outcomes:
        assert outcome.computational_latency >= 0.0
        assert outcome.synchronization_latency >= 0.0
        assert outcome.queue_wait >= 0.0
        assert outcome.remote_wait >= 0.0
        assert 0.0 <= outcome.information_value <= outcome.query.business_value
        if outcome.failed:
            assert outcome.information_value == 0.0
            assert outcome.degraded
        if outcome.retries or outcome.failovers:
            assert outcome.degraded
    assert system.failed_count == sum(1 for o in outcomes if o.failed)
    assert system.degraded_count == sum(1 for o in outcomes if o.degraded)


@settings(max_examples=10, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**31),
    outage_rate=st.floats(min_value=0.0, max_value=0.05),
)
def test_identical_fault_seeds_give_identical_runs(fault_seed, outage_rate):
    results = []
    for _attempt in range(2):
        system = _faulty_system(fault_seed, outage_rate, 0.1, 0.1)
        for index in range(4):
            system.submit(
                DSSQuery(
                    query_id=index + 1, name=f"q{index}", tables=("a", "b"),
                    business_value=50.0, base_work=5_000.0,
                ),
                at=1.0 + 3.0 * index,
            )
        system.run()
        results.append(
            [
                (o.query.name, o.completed_at, o.information_value,
                 o.retries, o.failovers, o.failed)
                for o in system.outcomes
            ]
        )
    assert results[0] == results[1]
