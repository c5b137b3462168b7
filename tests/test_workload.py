"""Unit tests: DSS queries, workloads, TPC-H query set, generators, arrivals."""

from __future__ import annotations

import pytest

from repro.core.value import DiscountRates
from repro.errors import WorkloadError
from repro.workload.arrival import ArrivalProcess, poisson_arrivals
from repro.workload.generator import overlapping_workload, random_queries
from repro.workload.query import DSSQuery, Workload
from repro.workload.tpch import TPCH_FOOTPRINTS, tpch_queries, tpch_query
from repro.sim.streams import DeterministicStream
from tests.engine.planner import Planner
from tests.tpch_oracle import logical_query


def make_query(query_id=1, name="q", tables=("a", "b")) -> DSSQuery:
    return DSSQuery(query_id=query_id, name=name, tables=tables)


class TestDSSQuery:
    def test_requires_tables(self):
        with pytest.raises(WorkloadError):
            make_query(tables=())

    def test_rejects_duplicate_tables(self):
        with pytest.raises(WorkloadError):
            make_query(tables=("a", "a"))

    def test_rejects_nonpositive_business_value(self):
        with pytest.raises(WorkloadError):
            DSSQuery(query_id=1, name="q", tables=("a",), business_value=0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_business_value(self, value):
        with pytest.raises(WorkloadError):
            DSSQuery(query_id=1, name="q", tables=("a",), business_value=value)

    def test_rejects_nonpositive_base_work(self):
        with pytest.raises(WorkloadError):
            DSSQuery(query_id=1, name="q", tables=("a",), base_work=-1.0)

    def test_with_rates_and_value_copy(self):
        query = make_query()
        rates = DiscountRates(0.1, 0.2)
        updated = query.with_rates(rates).with_value(3.0)
        assert updated.rates == rates
        assert updated.business_value == 3.0
        assert query.rates is None  # original untouched

    def test_identity_semantics(self):
        a = make_query()
        b = make_query()
        assert a != b
        assert len({a, b}) == 2

    def test_table_set(self):
        assert make_query().table_set() == frozenset({"a", "b"})


class TestWorkload:
    def test_add_and_lookup(self):
        workload = Workload()
        workload.add(make_query(1), arrival=5.0)
        workload.add(make_query(2, name="q2"))
        assert workload.arrival_of(1) == 5.0
        assert workload.arrival_of(2) == 0.0
        assert workload.query(2).name == "q2"
        assert len(workload) == 2

    def test_duplicate_id_rejected(self):
        workload = Workload()
        workload.add(make_query(1))
        with pytest.raises(WorkloadError):
            workload.add(make_query(1, name="other"))

    def test_duplicate_id_rejected_at_construction(self):
        # Regression: constructing Workload(queries=[...]) bypassed add()
        # and its duplicate check, so a duplicate id silently shadowed the
        # earlier query in lookups.
        with pytest.raises(WorkloadError):
            Workload(queries=[make_query(1), make_query(1, name="shadow")])

    def test_lookup_is_indexed_after_direct_list_mutation(self):
        # The lazy index must rebuild when the queries list is mutated
        # directly (not through add()).
        workload = Workload()
        workload.add(make_query(1))
        assert workload.query(1).name == "q"
        workload.queries.append(make_query(2, name="late"))
        assert workload.query(2).name == "late"

    def test_arrival_of_unknown_id_raises(self):
        # Regression: arrival_of() returned 0.0 for ids not in the
        # workload, disguising wiring mistakes as "arrived at t=0".
        workload = Workload()
        workload.add(make_query(1), arrival=5.0)
        with pytest.raises(WorkloadError):
            workload.arrival_of(99)

    def test_negative_arrival_rejected(self):
        workload = Workload()
        with pytest.raises(WorkloadError):
            workload.add(make_query(1), arrival=-1.0)

    def test_missing_query_raises(self):
        with pytest.raises(WorkloadError):
            Workload().query(9)

    def test_sorted_by_arrival(self):
        workload = Workload()
        workload.add(make_query(1), arrival=9.0)
        workload.add(make_query(2), arrival=1.0)
        assert [q.query_id for q in workload.sorted_by_arrival()] == [2, 1]

    def test_tables_touched(self):
        workload = Workload()
        workload.add(make_query(1, tables=("a", "b")))
        workload.add(make_query(2, tables=("b", "c")))
        assert workload.tables_touched() == {"a", "b", "c"}

    def test_from_queries_arrival_alignment(self):
        with pytest.raises(WorkloadError):
            Workload.from_queries([make_query(1)], arrivals=[1.0, 2.0])


class TestTpchQueries:
    def test_all_22_defined(self):
        queries = tpch_queries()
        assert len(queries) == 22
        assert [q.name for q in queries] == [f"Q{i}" for i in range(1, 23)]

    def test_lineitem_expands_to_partitions(self):
        q1 = tpch_query("Q1", query_id=1, partitions=5)
        assert set(q1.tables) == {f"lineitem_p{i}" for i in range(1, 6)}

    def test_footprints_match_logical_definitions(self):
        for query in tpch_queries():
            logical_tables = set(logical_query(query.name).table_names)
            if "lineitem" in logical_tables:
                logical_tables.discard("lineitem")
                logical_tables.update(
                    name for name in query.tables if name.startswith("lineitem")
                )
            assert logical_tables == set(query.tables)

    def test_unknown_query_rejected(self):
        with pytest.raises(WorkloadError):
            tpch_query("Q99", query_id=1)

    def test_every_query_executes_on_engine(self, tpch_tiny):
        planner = Planner(tpch_tiny.database)
        for name in TPCH_FOOTPRINTS:
            plan = planner.plan(logical_query(name))
            rows = plan.execute()
            assert isinstance(rows, list)
            assert plan.estimate.work_units > 0

    def test_footprint_table_lists_are_deduplicated(self):
        for name, footprint in TPCH_FOOTPRINTS.items():
            assert len(set(footprint)) == len(footprint), name


class TestRandomQueries:
    def test_count_and_table_limits(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=30, max_tables=6)
        assert len(queries) == 30
        assert all(1 <= len(q.tables) <= 6 for q in queries)

    def test_tables_exist_in_instance(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=10)
        names = set(synthetic_schema_only.table_names)
        for query in queries:
            assert set(query.tables) <= names

    def test_base_work_tracks_row_counts(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=10)
        for query in queries:
            expected = sum(
                synthetic_schema_only.row_counts[name] for name in query.tables
            )
            assert query.base_work == pytest.approx(max(expected, 1.0))

    def test_determinism(self, synthetic_schema_only):
        a = random_queries(synthetic_schema_only, count=5, seed=2)
        b = random_queries(synthetic_schema_only, count=5, seed=2)
        assert [q.tables for q in a] == [q.tables for q in b]

    def test_validation(self, synthetic_schema_only):
        with pytest.raises(WorkloadError):
            random_queries(synthetic_schema_only, count=0)


class TestOverlappingWorkload:
    def test_rate_zero_spreads_everyone(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=6)
        workload = overlapping_workload(queries, 0.0, spread_gap=50.0)
        arrivals = sorted(workload.arrivals.values())
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(gap >= 49.0 for gap in gaps)

    def test_rate_one_clusters_in_bursts(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=6)
        workload = overlapping_workload(
            queries, 1.0, burst_size=6, burst_window=2.0
        )
        arrivals = sorted(workload.arrivals.values())
        assert arrivals[-1] - arrivals[0] <= 2.0

    def test_invalid_rate(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=3)
        with pytest.raises(WorkloadError):
            overlapping_workload(queries, 1.5)

    def test_every_query_gets_an_arrival(self, synthetic_schema_only):
        queries = random_queries(synthetic_schema_only, count=9)
        workload = overlapping_workload(queries, 0.4)
        assert len(workload.arrivals) == 9


class TestArrivals:
    def test_deterministic_stream_arrivals(self):
        process = ArrivalProcess(DeterministicStream(2.0))
        assert process.take(3) == [2.0, 4.0, 6.0]

    def test_start_offset(self):
        process = ArrivalProcess(DeterministicStream(1.0), start=10.0)
        assert process.next_arrival() == 11.0

    def test_negative_start_rejected(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess(DeterministicStream(1.0), start=-1.0)

    def test_poisson_arrivals_monotone(self):
        arrivals = poisson_arrivals(5.0, 50, seed=1)
        assert len(arrivals) == 50
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_poisson_reproducible(self):
        assert poisson_arrivals(5.0, 10, seed=1) == poisson_arrivals(5.0, 10, seed=1)

    def test_iteration(self):
        process = ArrivalProcess(DeterministicStream(3.0))
        iterator = iter(process)
        assert next(iterator) == 3.0
        assert next(iterator) == 6.0
