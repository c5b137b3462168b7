"""Property tests: the online MQO scheduler's equivalence and safety.

Two properties anchor the online subsystem:

1. **Batch equivalence** — batch MQO (:meth:`WorkloadScheduler.schedule`)
   is a one-window online run: zero IV floor, a queue that fits the whole
   stream, no eager start and a window covering every arrival.  That run
   must be bit-identical to the pre-online batch loop kept as the oracle
   (``tests/mqo_batch_oracle.py``: sweep-line groups, one GA per group,
   one realization of the whole permutation) — permutation,
   per-assignment times and IVs, totals, group and GA counts.
2. **Trace safety under faults** — a traced online run through the full
   federated system, with site outages and sync faults injected, passes
   every :class:`TraceChecker` rule (lifecycle, ledger, fault *and*
   online-admission invariants).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import ivqp_router
from repro.core.value import DiscountRates
from repro.federation.costmodel import CostModel
from repro.federation.executor import ExecutionPolicy
from repro.federation.faults import FaultPlan
from repro.federation.system import SystemConfig, TableSpec, build_system
from repro.mqo.ga import GAConfig
from repro.mqo.online import OnlineConfig
from repro.mqo.scheduler import WorkloadScheduler
from repro.obs import TraceChecker
from repro.workload.query import DSSQuery, Workload

from tests.mqo_batch_oracle import BatchScheduler
from tests.test_mqo_scheduling import build_catalog

pytestmark = pytest.mark.slow

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TABLE_NAMES = [f"t{index}" for index in range(6)]

#: Arrival instants shared by several queries, so ties are common.
TIED_ARRIVALS = [0.0, 1.5, 3.0]


def stream_of(arrivals, tables=("t0", "t1")) -> Workload:
    """Identical 5,000-work queries over ``tables`` at ``arrivals``."""
    workload = Workload()
    for index, arrival in enumerate(arrivals):
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                base_work=5_000.0,
            ),
            arrival=arrival,
        )
    return workload


@st.composite
def streamed_workloads(draw):
    """A randomized workload with arrival times, plus GA seed/config."""
    count = draw(st.integers(min_value=1, max_value=10))
    workload = Workload()
    for index in range(count):
        tables = tuple(draw(st.lists(
            st.sampled_from(TABLE_NAMES),
            min_size=1, max_size=3, unique=True,
        )))
        workload.add(
            DSSQuery(
                query_id=index + 1,
                name=f"q{index + 1}",
                tables=tables,
                business_value=draw(
                    st.floats(min_value=0.5, max_value=4.0, allow_nan=False)
                ),
                base_work=draw(
                    st.floats(
                        min_value=1_000.0, max_value=20_000.0, allow_nan=False
                    )
                ),
            ),
            arrival=draw(st.one_of(
                st.sampled_from(TIED_ARRIVALS),
                st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
            )),
        )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    generations = draw(st.integers(min_value=3, max_value=12))
    return workload, seed, generations


class TestBatchEquivalence:
    @SETTINGS
    @given(streamed_workloads())
    @example((stream_of([2.0]), 0, 5))
    @example((stream_of([1.5] * 6), 3, 8))
    def test_wide_window_online_reproduces_batch_exactly(self, drawn):
        workload, seed, generations = drawn
        catalog = build_catalog()
        cost_model = CostModel(catalog)
        rates = DiscountRates.symmetric(0.1)
        ga_config = GAConfig(generations=generations)

        oracle = BatchScheduler(
            catalog, cost_model, rates, ga_config=ga_config, seed=seed
        ).schedule(workload)
        batch = WorkloadScheduler(
            catalog, cost_model, rates, ga_config=ga_config, seed=seed
        ).schedule(workload)

        assert batch.permutation == oracle.permutation
        assert batch.shed == []
        assert (
            batch.total_information_value == oracle.total_information_value
        )
        [window] = batch.windows
        assert window.groups == len(oracle.groups)
        assert batch.stats.ga_runs == len(oracle.ga_results)
        oracle_assignments = {
            a.query.query_id: a for a in oracle.result.assignments
        }
        for assignment in batch.result.assignments:
            twin = oracle_assignments[assignment.query.query_id]
            assert assignment.begin == twin.begin
            assert assignment.completed == twin.completed
            assert assignment.data_timestamp == twin.data_timestamp
            assert assignment.information_value == twin.information_value


@st.composite
def faulty_online_federations(draw):
    """A faulty federated system config plus a streamed workload."""
    num_tables = draw(st.integers(min_value=2, max_value=4))
    num_sites = draw(st.integers(min_value=1, max_value=3))
    tables = [
        TableSpec(
            name=f"t{index}",
            site=draw(st.integers(min_value=0, max_value=num_sites - 1)),
            row_count=draw(st.integers(min_value=100, max_value=20_000)),
        )
        for index in range(num_tables)
    ]
    config = SystemConfig(
        tables=tables,
        replicated=[spec.name for spec in tables],
        sync_mode=draw(st.sampled_from(["periodic", "shared"])),
        sync_mean_interval=draw(
            st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
        ),
        rates=DiscountRates(0.02, 0.02),
        trace=True,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    site_ids = sorted({spec.site for spec in config.tables})
    config.fault_plan = FaultPlan.generate(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        horizon=500.0,
        site_ids=site_ids,
        outage_rate=draw(
            st.floats(min_value=0.0, max_value=0.03, allow_nan=False)
        ),
        outage_mean_duration=draw(
            st.floats(min_value=1.0, max_value=10.0, allow_nan=False)
        ),
        sync_skip_prob=draw(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False)
        ),
        sync_delay_prob=draw(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False)
        ),
    )
    config.execution_policy = ExecutionPolicy(
        max_retries=draw(st.integers(min_value=1, max_value=3)),
        retry_backoff=0.5,
        failover=True,
    )
    count = draw(st.integers(min_value=1, max_value=5))
    workload = Workload()
    for index in range(count):
        touched = tuple(draw(st.lists(
            st.sampled_from([spec.name for spec in tables]),
            min_size=1, max_size=num_tables, unique=True,
        )))
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=touched
            ),
            arrival=draw(
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
            ),
        )
    online_config = OnlineConfig(
        window=draw(st.floats(min_value=1.0, max_value=15.0, allow_nan=False)),
        max_pending=draw(st.integers(min_value=1, max_value=8)),
        iv_floor=0.0,
        eager_start=draw(st.booleans()),
    )
    return config, workload, online_config


class TestTraceSafetyUnderFaults:
    @SETTINGS
    @given(faulty_online_federations())
    def test_traced_online_run_with_faults_passes_checker(self, drawn):
        config, workload, online_config = drawn
        system = build_system(config, ivqp_router)
        system.submit_workload_online(workload, config=online_config)
        system.run()
        assert len(system.outcomes) == system.online.stats.dispatched
        violations = TraceChecker().check(system.tracer.records)
        assert violations == []
