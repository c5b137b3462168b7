"""Unit tests: physical operators."""

from __future__ import annotations

import pytest

from tests.engine.expr import Col, Const
from tests.engine.ops import (
    AggSpec,
    Aggregate,
    ExecutionStats,
    Filter,
    HashJoin,
    Limit,
    Project,
    Scan,
    Sort,
)
from tests.engine.schema import Column, DType, TableSchema
from tests.engine.table import Table
from tests.engine.errors import EngineError


def users_table() -> Table:
    schema = TableSchema(
        "users",
        (Column("id", DType.INT), Column("team", DType.STR),
         Column("score", DType.FLOAT)),
    )
    return Table(schema, rows=[
        (1, "red", 10.0),
        (2, "blue", 20.0),
        (3, "red", 30.0),
        (4, "blue", None),
    ])


def orders_table() -> Table:
    schema = TableSchema(
        "orders",
        (Column("order_id", DType.INT), Column("user_id", DType.INT),
         Column("amount", DType.FLOAT)),
    )
    return Table(schema, rows=[
        (100, 1, 5.0),
        (101, 1, 7.0),
        (102, 3, 9.0),
        (103, None, 11.0),
    ])


class TestScanFilterProject:
    def test_scan_qualifies_columns(self):
        stats = ExecutionStats()
        scan = Scan(users_table(), "u", stats)
        rows = list(scan)
        assert scan.columns == ("u.id", "u.team", "u.score")
        assert rows[0]["u.id"] == 1
        assert stats.rows_scanned == 4

    def test_filter_keeps_matching_rows(self):
        stats = ExecutionStats()
        node = Filter(Scan(users_table(), "u", stats), Col("u.team") == "red")
        rows = list(node)
        assert [row["u.id"] for row in rows] == [1, 3]
        assert stats.rows_filtered == 4

    def test_project_computes_expressions(self):
        stats = ExecutionStats()
        node = Project(
            Scan(users_table(), "u", stats),
            [("double_score", Col("u.score") * Const(2.0))],
        )
        rows = list(node)
        assert rows[0] == {"double_score": 20.0}
        assert rows[3] == {"double_score": None}

    def test_project_requires_outputs(self):
        stats = ExecutionStats()
        with pytest.raises(EngineError):
            Project(Scan(users_table(), "u", stats), [])


class TestHashJoin:
    def test_inner_join_matches_keys(self):
        stats = ExecutionStats()
        left = Scan(users_table(), "u", stats)
        right = Scan(orders_table(), "o", stats)
        join = HashJoin(left, right, ["u.id"], ["o.user_id"])
        rows = list(join)
        pairs = sorted((row["u.id"], row["o.order_id"]) for row in rows)
        assert pairs == [(1, 100), (1, 101), (3, 102)]
        assert stats.rows_joined == 3
        assert stats.hash_build_rows == 4

    def test_null_keys_never_join(self):
        stats = ExecutionStats()
        join = HashJoin(
            Scan(users_table(), "u", stats),
            Scan(orders_table(), "o", stats),
            ["u.id"], ["o.user_id"],
        )
        assert all(row["o.order_id"] != 103 for row in join)

    def test_key_arity_must_match(self):
        stats = ExecutionStats()
        with pytest.raises(EngineError):
            HashJoin(
                Scan(users_table(), "u", stats),
                Scan(orders_table(), "o", stats),
                ["u.id"], [],
            )

    def test_children_must_share_stats(self):
        with pytest.raises(EngineError):
            HashJoin(
                Scan(users_table(), "u", ExecutionStats()),
                Scan(orders_table(), "o", ExecutionStats()),
                ["u.id"], ["o.user_id"],
            )


class TestAggregate:
    def test_group_by_with_aggregates(self):
        stats = ExecutionStats()
        node = Aggregate(
            Scan(users_table(), "u", stats),
            group_by=["u.team"],
            aggregates=[
                AggSpec("sum", Col("u.score"), "total"),
                AggSpec("count", None, "n"),
                AggSpec("min", Col("u.score"), "lowest"),
                AggSpec("max", Col("u.score"), "highest"),
                AggSpec("avg", Col("u.score"), "mean"),
            ],
        )
        by_team = {row["u.team"]: row for row in node}
        assert by_team["red"]["total"] == 40.0
        assert by_team["red"]["n"] == 2
        assert by_team["blue"]["total"] == 20.0  # NULL ignored by sum
        assert by_team["blue"]["lowest"] == 20.0
        assert by_team["red"]["mean"] == pytest.approx(20.0)
        assert by_team["red"]["highest"] == 30.0

    def test_global_aggregate_over_empty_input_yields_one_row(self):
        stats = ExecutionStats()
        node = Aggregate(
            Filter(Scan(users_table(), "u", stats), Col("u.id") > 999),
            group_by=[],
            aggregates=[AggSpec("count", None, "n"),
                        AggSpec("sum", Col("u.score"), "total")],
        )
        rows = list(node)
        assert rows == [{"n": 0, "total": None}]

    def test_group_by_empty_groups_absent(self):
        stats = ExecutionStats()
        node = Aggregate(
            Filter(Scan(users_table(), "u", stats), Col("u.id") > 999),
            group_by=["u.team"],
            aggregates=[AggSpec("count", None, "n")],
        )
        assert list(node) == []

    def test_aggspec_validation(self):
        with pytest.raises(EngineError):
            AggSpec("median", Col("u.score"), "m")
        with pytest.raises(EngineError):
            AggSpec("sum", None, "s")

    def test_aggregate_needs_keys_or_specs(self):
        stats = ExecutionStats()
        with pytest.raises(EngineError):
            Aggregate(Scan(users_table(), "u", stats), [], [])


class TestSortLimit:
    def test_sort_ascending_with_nulls_last(self):
        stats = ExecutionStats()
        node = Sort(Scan(users_table(), "u", stats), ["u.score"])
        scores = [row["u.score"] for row in node]
        assert scores == [10.0, 20.0, 30.0, None]

    def test_sort_descending(self):
        stats = ExecutionStats()
        node = Sort(
            Scan(users_table(), "u", stats), ["u.id"], descending=True
        )
        assert [row["u.id"] for row in node] == [4, 3, 2, 1]

    def test_sort_requires_keys(self):
        stats = ExecutionStats()
        with pytest.raises(EngineError):
            Sort(Scan(users_table(), "u", stats), [])

    def test_limit_truncates(self):
        stats = ExecutionStats()
        node = Limit(Scan(users_table(), "u", stats), 2)
        assert len(list(node)) == 2

    def test_limit_zero(self):
        stats = ExecutionStats()
        assert list(Limit(Scan(users_table(), "u", stats), 0)) == []

    def test_limit_rejects_negative(self):
        stats = ExecutionStats()
        with pytest.raises(EngineError):
            Limit(Scan(users_table(), "u", stats), -1)


class TestExecutionStats:
    def test_total_work_formula(self):
        stats = ExecutionStats(
            rows_scanned=10, rows_filtered=5, rows_joined=3,
            rows_output=2, hash_build_rows=4,
        )
        assert stats.total_work == 10 + 5 + 6 + 4 + 2
