"""The paper's model as invariances (metamorphic relations).

The IV formula is stated per unit of time: a discount rate λ per minute
and latencies in minutes.  Measuring every time in another unit — every
duration and instant multiplied by ``c`` — and re-expressing each rate per
new unit, ``1 − λ′ = (1 − λ)^{1/c}``, leaves every IV unchanged:
``(1 − λ′)^{c·L} = (1 − λ)^L``.  So no decision may change either.  A
time constant that does not scale (a hard-coded minute somewhere) breaks
the relation.

With ``c`` a power of two every scaled time is exact in floating point,
so only the rates' ``pow`` and ``log`` round differently: starts compare
with ``==``, IVs within a relative 1e-12.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import IVQPOptimizer
from repro.core.plan import VersionKind
from repro.core.value import DiscountRates
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.network import NetworkModel, SiteLink
from repro.workload.query import DSSQuery

NUM_SITES = 3
SYNC_POINTS = 6

table_spec = st.tuples(
    st.integers(min_value=0, max_value=NUM_SITES - 1),    # site
    st.integers(min_value=500, max_value=40_000),          # rows
    st.sampled_from([True, True, False]),                  # replicated
    st.floats(min_value=0.0, max_value=20.0),              # first sync
    st.floats(min_value=0.5, max_value=30.0),              # sync period
    st.floats(min_value=0.0, max_value=1.0),               # initial, as a
)                                                          # share of first
#: The paper's rates span 0.01–0.15 per minute.  A zero computational
#: rate leaves the scatter bound infinite, and the walk then stops on
#: ``max_time_lines`` — a count, so still invariant, but slow.
rate = st.floats(min_value=0.01, max_value=0.5)
world_spec = st.fixed_dictionaries({
    "tables": st.lists(table_spec, min_size=1, max_size=4),
    "work": st.floats(min_value=2_000.0, max_value=30_000.0),
    "value": st.floats(min_value=0.1, max_value=5.0),
    "rates": st.tuples(rate, st.one_of(st.just(0.0), rate)),
    "submitted": st.floats(min_value=0.0, max_value=60.0),
    "latency": st.floats(min_value=0.0, max_value=0.5),
    "slow_site": st.floats(min_value=0.0, max_value=2.0),
    "min_processing": st.floats(min_value=0.0, max_value=3.0),
})


def choose(spec: dict, c: float):
    """The optimizer's plan with every time-valued input scaled by ``c``
    and each rate re-expressed per new unit."""
    catalog = Catalog()
    for index, (site, rows, replicated, first, period, initial) in enumerate(
        spec["tables"]
    ):
        name = f"t{index}"
        catalog.add_table(TableDef(name, site=site, row_count=rows))
        if replicated:
            catalog.add_replica(
                name,
                FixedSyncSchedule(
                    [c * (first + k * period) for k in range(SYNC_POINTS)],
                    tail_period=c * period,
                ),
                initial_timestamp=c * initial * first,
            )
    defaults = NetworkModel()
    network = NetworkModel(
        base_latency=c * spec["latency"],
        bandwidth=defaults.bandwidth / c,            # bytes per minute
        coordination_overhead=c * defaults.coordination_overhead,
        site_links={
            1: SiteLink(c * spec["slow_site"], defaults.bandwidth / (4 * c))
        },
    )
    params = CostParameters()
    cost_model = CostModel(
        catalog,
        network=network,
        params=CostParameters(
            local_throughput=params.local_throughput / c,   # work per minute
            remote_throughput=params.remote_throughput / c,
            assembly_per_site=c * params.assembly_per_site,
            min_processing=c * spec["min_processing"],
        ),
    )
    computational, synchronization = spec["rates"]
    rates = DiscountRates(
        1.0 - (1.0 - computational) ** (1.0 / c),
        1.0 - (1.0 - synchronization) ** (1.0 / c),
    )
    query = DSSQuery(
        query_id=1, name="q1",
        tables=tuple(f"t{index}" for index in range(len(spec["tables"]))),
        business_value=spec["value"], base_work=spec["work"],
    )
    return IVQPOptimizer(catalog, cost_model, rates).choose_plan(
        query, c * spec["submitted"]
    )


def remote_tables(plan) -> frozenset[str]:
    return frozenset(
        version.table for version in plan.versions
        if version.kind is VersionKind.BASE
    )


class TestTimeUnitInvariance:
    @settings(max_examples=200, deadline=None)
    @given(spec=world_spec, c=st.sampled_from([0.5, 2.0]))
    def test_choose_plan_is_time_unit_invariant(self, spec, c):
        plan = choose(spec, 1.0)
        scaled = choose(spec, c)
        assert remote_tables(scaled) == remote_tables(plan)
        assert scaled.start_time == c * plan.start_time
        assert math.isclose(
            scaled.information_value, plan.information_value,
            rel_tol=1e-12, abs_tol=0.0,
        )
