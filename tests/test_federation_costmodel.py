"""Unit tests: network model and the combo cost model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, PlanError
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import (
    CostModel,
    CostParameters,
    StaticCostProvider,
)
from repro.federation.network import NetworkModel
from repro.workload.query import DSSQuery


class TestNetworkModel:
    def test_transfer_time_includes_latency_and_bandwidth(self):
        network = NetworkModel(base_latency=0.1, bandwidth=1000.0)
        assert network.transfer_time(500.0) == pytest.approx(0.6)

    def test_zero_bytes_still_pays_base_latency(self):
        # Regression: an empty result is still a round trip — zero-byte
        # payloads must not skip the connection latency.
        network = NetworkModel(base_latency=0.1, bandwidth=1000.0)
        assert network.transfer_time(0.0) == pytest.approx(0.1)

    def test_coordination_charges_beyond_first_site(self):
        network = NetworkModel(coordination_overhead=0.5)
        assert network.coordination_time(0) == 0.0
        assert network.coordination_time(1) == 0.0
        assert network.coordination_time(3) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkModel(base_latency=-1.0)
        with pytest.raises(ConfigError):
            NetworkModel(bandwidth=0.0)
        with pytest.raises(ConfigError):
            NetworkModel().transfer_time(-5.0)
        with pytest.raises(ConfigError):
            NetworkModel().coordination_time(-1)


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(TableDef("small", site=0, row_count=100, row_bytes=64))
    catalog.add_table(TableDef("big", site=1, row_count=10_000, row_bytes=64))
    catalog.add_table(TableDef("mid", site=0, row_count=1_000, row_bytes=64))
    for name in ("small", "big", "mid"):
        catalog.add_replica(name, FixedSyncSchedule([1.0], tail_period=10.0))
    return catalog


def make_query(tables=("small", "big", "mid"), base_work=11_100.0) -> DSSQuery:
    return DSSQuery(
        query_id=1, name="q", tables=tables, base_work=base_work
    )


class TestCostModel:
    def test_base_work_from_explicit_value(self):
        model = CostModel(build_catalog())
        assert model.base_work(make_query()) == 11_100.0

    def test_base_work_fallback_from_row_counts(self):
        model = CostModel(build_catalog())
        query = DSSQuery(query_id=2, name="q2", tables=("small", "mid"))
        assert model.base_work(query) == pytest.approx(1_100.0)

    def test_all_local_combo_has_no_legs(self):
        model = CostModel(build_catalog())
        cost = model.combo_cost(make_query(), frozenset())
        assert cost.site_legs == ()
        assert cost.local_minutes > 0

    def test_remote_combo_groups_legs_by_site(self):
        model = CostModel(build_catalog())
        cost = model.combo_cost(
            make_query(), frozenset({"small", "mid", "big"})
        )
        assert cost.remote_sites == (0, 1)  # small+mid share site 0

    def test_more_remote_tables_cost_more(self):
        model = CostModel(build_catalog())
        query = make_query()
        local = model.combo_cost(query, frozenset()).total
        one = model.combo_cost(query, frozenset({"big"})).total
        everything = model.combo_cost(
            query, frozenset({"small", "big", "mid"})
        ).total
        assert local < one <= everything

    def test_work_shares_proportional_to_rows(self):
        model = CostModel(build_catalog())
        query = make_query()
        # "big" is 10000/11100 of the work; its remote leg dominates.
        big_leg = model.combo_cost(query, frozenset({"big"}))
        small_leg = model.combo_cost(query, frozenset({"small"}))
        assert big_leg.leg_minutes(1) > 5 * small_leg.leg_minutes(0)

    def test_unknown_remote_table_rejected(self):
        model = CostModel(build_catalog())
        with pytest.raises(PlanError):
            model.combo_cost(make_query(), frozenset({"zz"}))

    def test_combo_cache_hits(self):
        model = CostModel(build_catalog())
        query = make_query()
        first = model.combo_cost(query, frozenset({"big"}))
        second = model.combo_cost(query, frozenset({"big"}))
        assert first is second

    def test_identical_queries_in_different_objects_do_not_share_cache(self):
        model = CostModel(build_catalog())
        a = make_query(base_work=100.0)
        b = make_query(base_work=50_000.0)  # same id, different object
        assert model.base_work(a) == 100.0
        assert model.base_work(b) == 50_000.0

    def test_engine_calibration_path(self):
        """A calibrated TPC-H query costs the engine's committed estimate,
        not the row-count fallback."""
        from repro.data.tpch import tpch_instance
        from repro.workload.tpch import tpch_queries

        instance = tpch_instance(scale=0.0005, seed=7)
        catalog = Catalog()
        for index, name in enumerate(instance.table_names):
            catalog.add_table(
                TableDef(name, site=index % 3,
                         row_count=instance.row_counts[name])
            )
        model = CostModel(catalog)
        query = tpch_queries(instance)[2]
        assert query.name == "Q3"
        work = model.base_work(query)
        assert work == instance.work_units["Q3"]
        assert work > 100.0

    def test_min_processing_floor(self):
        catalog = Catalog()
        catalog.add_table(TableDef("tiny", site=0, row_count=1))
        model = CostModel(
            catalog, params=CostParameters(min_processing=0.5)
        )
        query = DSSQuery(query_id=1, name="q", tables=("tiny",), base_work=1.0)
        cost = model.combo_cost(query, frozenset())
        assert cost.local_minutes == pytest.approx(0.5)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            CostParameters(local_throughput=0.0)
        with pytest.raises(ConfigError):
            CostParameters(ship_fraction=1.5)
        with pytest.raises(ConfigError):
            CostParameters(result_bytes=-1.0)


class TestStaticCostProvider:
    def test_costs_by_remote_count(self, fig4_world):
        catalog, provider, query, _rates = fig4_world
        assert provider.combo_cost(query, frozenset()).total == 2.0
        assert provider.combo_cost(query, frozenset({"T1"})).total == 4.0
        assert provider.combo_cost(
            query, frozenset({"T1", "T2", "T3", "T4"})
        ).total == 10.0

    def test_overrides_take_precedence(self, fig4_world):
        catalog, _provider, query, _rates = fig4_world
        provider = StaticCostProvider(
            catalog, {0: 2.0, 1: 4.0},
            overrides={frozenset({"T1"}): 99.0},
        )
        assert provider.combo_cost(query, frozenset({"T1"})).total == 99.0
        assert provider.combo_cost(query, frozenset({"T2"})).total == 4.0

    def test_missing_count_raises(self, fig4_world):
        catalog, _provider, query, _rates = fig4_world
        provider = StaticCostProvider(catalog, {0: 2.0})
        with pytest.raises(PlanError):
            provider.combo_cost(query, frozenset({"T1"}))

    def test_unknown_table_rejected(self, fig4_world):
        _catalog, provider, query, _rates = fig4_world
        with pytest.raises(PlanError):
            provider.combo_cost(query, frozenset({"ZZ"}))

    def test_legs_cover_involved_sites(self, fig4_world):
        _catalog, provider, query, _rates = fig4_world
        cost = provider.combo_cost(query, frozenset({"T1", "T3"}))
        assert cost.remote_sites == (0, 2)

    def test_validation(self, fig4_world):
        catalog, _provider, _query, _rates = fig4_world
        with pytest.raises(ConfigError):
            StaticCostProvider(catalog, {})
        with pytest.raises(ConfigError):
            StaticCostProvider(catalog, {0: -1.0})
        with pytest.raises(ConfigError):
            StaticCostProvider(catalog, {0: 1.0}, remote_leg_fraction=2.0)
