"""Unit tests: union-all views and the Distinct operator."""

from __future__ import annotations

import pytest

from tests.engine.ops import Distinct, ExecutionStats, Scan
from tests.engine.planner import Database, Planner
from tests.engine.query import QueryBuilder
from tests.engine.schema import Column, DType, TableSchema
from tests.engine.table import Table
from tests.engine.views import UnionTable
from tests.engine.errors import EngineError


def part_schema(name: str) -> TableSchema:
    return TableSchema(
        name,
        (Column("id", DType.INT), Column("value", DType.FLOAT)),
    )


def build_view() -> tuple[UnionTable, Table, Table]:
    p1 = Table(part_schema("p1"), rows=[(1, 1.0), (2, 2.0)])
    p2 = Table(part_schema("p2"), rows=[(3, 3.0)])
    view = UnionTable(part_schema("combined"), [p1, p2])
    return view, p1, p2


class TestUnionTable:
    def test_row_count_and_size_aggregate(self):
        view, p1, p2 = build_view()
        assert view.row_count == 3
        assert len(view) == 3
        assert view.size_bytes == p1.size_bytes + p2.size_bytes

    def test_rows_chain_members_in_order(self):
        view, _p1, _p2 = build_view()
        assert list(view) == [(1, 1.0), (2, 2.0), (3, 3.0)]

    def test_column_values_concatenate(self):
        view, _p1, _p2 = build_view()
        assert view.column_values("id") == [1, 2, 3]

    def test_reflects_member_mutation(self):
        view, p1, _p2 = build_view()
        p1.insert((9, 9.0))
        assert view.row_count == 4
        assert (9, 9.0) in list(view)

    def test_insert_rejected(self):
        view, _p1, _p2 = build_view()
        with pytest.raises(EngineError):
            view.insert((5, 5.0))

    def test_members_must_match_schema(self):
        other = Table(
            TableSchema("odd", (Column("x", DType.INT),)), rows=[(1,)]
        )
        with pytest.raises(EngineError):
            UnionTable(part_schema("combined"), [other])

    def test_needs_members(self):
        with pytest.raises(EngineError):
            UnionTable(part_schema("combined"), [])

    def test_planner_queries_view_like_a_table(self):
        view, p1, p2 = build_view()
        db = Database()
        db.add(p1)
        db.add(p2)
        db.add(view)
        from tests.engine.expr import Col

        query = (
            QueryBuilder("q")
            .table("combined", "c")
            .agg("sum", Col("c.value"), "total")
            .build()
        )
        rows = Planner(db).plan(query).execute()
        assert rows[0]["total"] == pytest.approx(6.0)

    def test_tpch_lineitem_is_a_view(self, tpch_tiny):
        combined = tpch_tiny.database.table("lineitem")
        assert isinstance(combined, UnionTable)
        assert combined.row_count == sum(
            tpch_tiny.database.table(name).row_count
            for name in tpch_tiny.lineitem_partitions
        )


class TestDistinct:
    def make_scan(self):
        table = Table(part_schema("t"), rows=[
            (1, 1.0), (1, 1.0), (2, 1.0), (2, 2.0),
        ])
        return Scan(table, "t", ExecutionStats())

    def test_full_row_distinct(self):
        rows = list(Distinct(self.make_scan()))
        assert len(rows) == 3

    def test_keyed_distinct_keeps_first(self):
        rows = list(Distinct(self.make_scan(), keys=["t.id"]))
        assert [row["t.id"] for row in rows] == [1, 2]
        assert rows[1]["t.value"] == 1.0  # first occurrence wins

    def test_columns_pass_through(self):
        node = Distinct(self.make_scan())
        assert node.columns == ("t.id", "t.value")
