"""Unit tests: statistics, the greedy planner and the Database container."""

from __future__ import annotations

import pytest

from tests.engine.expr import Col, Const
from tests.engine.planner import Database, Planner
from tests.engine.query import QueryBuilder
from tests.engine.schema import Column, DType, TableSchema
from tests.engine.stats import (
    ColumnStats,
    TableStats,
    estimate_selectivity,
    join_selectivity,
)
from tests.engine.table import Table
from tests.engine.errors import EngineError


def build_db() -> Database:
    db = Database()
    customers = Table(
        TableSchema("customer", (
            Column("c_id", DType.INT), Column("c_nation", DType.INT),
        )),
        rows=[(i, i % 5) for i in range(50)],
    )
    orders = Table(
        TableSchema("orders", (
            Column("o_id", DType.INT), Column("o_cust", DType.INT),
            Column("o_price", DType.FLOAT),
        )),
        rows=[(i, i % 50, float(i)) for i in range(400)],
    )
    db.add(customers)
    db.add(orders)
    return db


class TestDatabase:
    def test_duplicate_table_rejected(self):
        db = build_db()
        with pytest.raises(EngineError):
            db.add(Table(TableSchema("orders", (Column("x", DType.INT),))))

    def test_missing_table_raises(self):
        with pytest.raises(EngineError):
            build_db().table("nope")
        with pytest.raises(EngineError):
            build_db().stats("nope")

    def test_contains_and_names(self):
        db = build_db()
        assert "orders" in db
        assert db.table_names == ["customer", "orders"]

    def test_refresh_stats_after_load(self):
        db = build_db()
        before = db.stats("customer").row_count
        db.table("customer").insert((99, 0))
        db.refresh_stats("customer")
        assert db.stats("customer").row_count == before + 1


class TestStatistics:
    def test_column_stats_from_values(self):
        stats = ColumnStats.from_values([1, 2, 2, None])
        assert stats.distinct == 2
        assert stats.minimum == 1
        assert stats.maximum == 2
        assert stats.null_fraction == pytest.approx(0.25)

    def test_column_stats_all_null(self):
        stats = ColumnStats.from_values([None, None])
        assert stats.distinct == 0
        assert stats.null_fraction == 1.0

    def test_table_stats_from_table(self):
        stats = TableStats.from_table(build_db().table("customer"))
        assert stats.row_count == 50
        assert stats.column("c_nation").distinct == 5

    def test_equality_selectivity_uses_distinct(self):
        db = build_db()
        by_alias = {"c": db.stats("customer")}
        predicate = Col("c.c_nation") == Const(2)
        assert estimate_selectivity(predicate, by_alias) == pytest.approx(1 / 5)

    def test_range_selectivity_uses_min_max(self):
        db = build_db()
        by_alias = {"o": db.stats("orders")}
        predicate = Col("o.o_price") < Const(100.0)
        selectivity = estimate_selectivity(predicate, by_alias)
        assert 0.2 <= selectivity <= 0.3  # ~ 100/399

    def test_flipped_constant_side(self):
        db = build_db()
        by_alias = {"o": db.stats("orders")}
        predicate = Const(100.0) > Col("o.o_price")  # same as o_price < 100
        selectivity = estimate_selectivity(predicate, by_alias)
        assert 0.2 <= selectivity <= 0.3

    def test_conjunction_multiplies(self):
        db = build_db()
        by_alias = {"c": db.stats("customer")}
        predicate = (Col("c.c_nation") == Const(1)) & (
            Col("c.c_nation") == Const(2)
        )
        assert estimate_selectivity(predicate, by_alias) == pytest.approx(1 / 25)

    def test_unknown_alias_falls_back(self):
        predicate = Col("x.col") == Const(1)
        assert estimate_selectivity(predicate, {}) == pytest.approx(1 / 3)

    def test_join_selectivity_uses_larger_distinct(self):
        db = build_db()
        by_alias = {"c": db.stats("customer"), "o": db.stats("orders")}
        selectivity = join_selectivity("c", "c_id", "o", "o_cust", by_alias)
        assert selectivity == pytest.approx(1 / 50)


class TestPlanner:
    def test_single_table_plan(self):
        db = build_db()
        query = (
            QueryBuilder("single")
            .table("orders", "o")
            .where(Col("o.o_price") >= Const(100.0))
            .select("id", Col("o.o_id"))
            .build()
        )
        plan = Planner(db).plan(query)
        rows = plan.execute()
        assert len(rows) == 300
        assert plan.join_order == ("o",)

    def test_join_order_starts_with_smaller_table(self):
        db = build_db()
        query = (
            QueryBuilder("join")
            .table("customer", "c").table("orders", "o")
            .join("c.c_id", "o.o_cust")
            .build()
        )
        plan = Planner(db).plan(query)
        assert plan.join_order[0] == "c"

    def test_join_produces_correct_rows(self):
        db = build_db()
        query = (
            QueryBuilder("join")
            .table("customer", "c").table("orders", "o")
            .join("c.c_id", "o.o_cust")
            .group("c.c_nation")
            .agg("count", None, "n")
            .build()
        )
        rows = Planner(db).plan(query).execute()
        assert sum(row["n"] for row in rows) == 400

    def test_estimate_tracks_actual_within_order_of_magnitude(self):
        db = build_db()
        query = (
            QueryBuilder("est")
            .table("customer", "c").table("orders", "o")
            .join("c.c_id", "o.o_cust")
            .where(Col("o.o_price") > Const(200.0))
            .group("c.c_nation")
            .agg("sum", Col("o.o_price"), "rev")
            .build()
        )
        plan = Planner(db).plan(query)
        plan.execute()
        estimated = plan.estimate.work_units
        actual = plan.stats.total_work
        assert actual / 10 <= estimated <= actual * 10

    def test_cross_join_fallback(self):
        db = build_db()
        query = (
            QueryBuilder("cross")
            .table("customer", "c").table("orders", "o")
            .build()
        )
        rows = Planner(db).plan(query).execute()
        assert len(rows) == 50 * 400

    def test_residual_multi_table_filter(self):
        db = build_db()
        query = (
            QueryBuilder("residual")
            .table("customer", "c").table("orders", "o")
            .join("c.c_id", "o.o_cust")
            .where(Col("o.o_price") > Col("c.c_nation"))
            .select("oid", Col("o.o_id"))
            .build()
        )
        rows = Planner(db).plan(query).execute()
        # price == o_id as float, nation in [0, 5); almost all pass.
        assert 380 <= len(rows) <= 400

    def test_order_and_limit(self):
        db = build_db()
        query = (
            QueryBuilder("top")
            .table("orders", "o")
            .select("price", Col("o.o_price"))
            .order("price", descending=True)
            .take(3)
            .build()
        )
        rows = Planner(db).plan(query).execute()
        assert [row["price"] for row in rows] == [399.0, 398.0, 397.0]

    def test_self_join_with_aliases(self):
        db = build_db()
        query = (
            QueryBuilder("self")
            .table("customer", "c1").table("customer", "c2")
            .join("c1.c_nation", "c2.c_nation")
            .agg("count", None, "pairs")
            .build()
        )
        rows = Planner(db).plan(query).execute()
        assert rows[0]["pairs"] == 5 * 10 * 10  # 5 nations x 10x10 members
