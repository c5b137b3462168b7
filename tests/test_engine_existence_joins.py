"""Unit and property tests: semi/anti joins and a brute-force join oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.engine.expr import Col
from tests.engine.ops import AntiJoin, ExecutionStats, Scan, SemiJoin
from tests.engine.planner import Database, Planner
from tests.engine.query import QueryBuilder
from tests.engine.schema import Column, DType, TableSchema
from tests.engine.table import Table
from tests.engine.errors import EngineError


def customers() -> Table:
    schema = TableSchema(
        "customers", (Column("id", DType.INT), Column("name", DType.STR)),
    )
    return Table(schema, rows=[
        (1, "with-orders"), (2, "no-orders"), (3, "with-orders-too"),
        (4, None), (None, "null-key"),
    ], validate=False)


def orders() -> Table:
    schema = TableSchema(
        "orders", (Column("oid", DType.INT), Column("cust", DType.INT)),
    )
    return Table(schema, rows=[
        (10, 1), (11, 1), (12, 3), (13, None),
    ])


class TestSemiJoin:
    def test_keeps_left_rows_with_matches_once(self):
        stats = ExecutionStats()
        node = SemiJoin(
            Scan(customers(), "c", stats), Scan(orders(), "o", stats),
            ["c.id"], ["o.cust"],
        )
        rows = list(node)
        assert [row["c.id"] for row in rows] == [1, 3]  # no duplicates

    def test_columns_are_left_side_only(self):
        stats = ExecutionStats()
        node = SemiJoin(
            Scan(customers(), "c", stats), Scan(orders(), "o", stats),
            ["c.id"], ["o.cust"],
        )
        assert node.columns == ("c.id", "c.name")

    def test_null_keys_never_match(self):
        stats = ExecutionStats()
        node = SemiJoin(
            Scan(customers(), "c", stats), Scan(orders(), "o", stats),
            ["c.id"], ["o.cust"],
        )
        assert all(row["c.id"] is not None for row in node)


class TestAntiJoin:
    def test_keeps_left_rows_without_matches(self):
        stats = ExecutionStats()
        node = AntiJoin(
            Scan(customers(), "c", stats), Scan(orders(), "o", stats),
            ["c.id"], ["o.cust"],
        )
        ids = [row["c.id"] for row in node]
        assert 2 in ids  # genuinely unmatched
        assert 4 in ids
        assert None in ids  # NULL key: NOT EXISTS keeps it
        assert 1 not in ids

    def test_semi_and_anti_partition_the_left(self):
        stats = ExecutionStats()
        semi = list(SemiJoin(
            Scan(customers(), "c", stats), Scan(orders(), "o", stats),
            ["c.id"], ["o.cust"],
        ))
        anti = list(AntiJoin(
            Scan(customers(), "c", stats), Scan(orders(), "o", stats),
            ["c.id"], ["o.cust"],
        ))
        assert len(semi) + len(anti) == customers().row_count

    def test_validation(self):
        stats = ExecutionStats()
        with pytest.raises(EngineError):
            SemiJoin(
                Scan(customers(), "c", stats), Scan(orders(), "o", stats),
                [], [],
            )
        with pytest.raises(EngineError):
            AntiJoin(
                Scan(customers(), "c", ExecutionStats()),
                Scan(orders(), "o", ExecutionStats()),
                ["c.id"], ["o.cust"],
            )


# -- brute-force oracle for the planner's join pipeline --------------------------


def _brute_force_join(left_rows, right_rows, left_key, right_key):
    result = []
    for lrow in left_rows:
        for rrow in right_rows:
            if (
                lrow[left_key] is not None
                and lrow[left_key] == rrow[right_key]
            ):
                result.append((lrow, rrow))
    return result


@settings(max_examples=60, deadline=None)
@given(
    left_keys=st.lists(
        st.integers(min_value=0, max_value=6), min_size=0, max_size=15
    ),
    right_keys=st.lists(
        st.integers(min_value=0, max_value=6), min_size=0, max_size=15
    ),
)
def test_planner_join_matches_nested_loop_oracle(left_keys, right_keys):
    """The planner's hash-join pipeline equals a brute-force nested loop."""
    left_schema = TableSchema(
        "lhs", (Column("k", DType.INT), Column("tag", DType.INT)),
    )
    right_schema = TableSchema(
        "rhs", (Column("k", DType.INT), Column("tag", DType.INT)),
    )
    db = Database()
    db.add(Table(left_schema, rows=[(k, i) for i, k in enumerate(left_keys)]))
    db.add(Table(right_schema, rows=[(k, i) for i, k in enumerate(right_keys)]))

    query = (
        QueryBuilder("oracle")
        .table("lhs", "l").table("rhs", "r")
        .join("l.k", "r.k")
        .select("lk", Col("l.k"))
        .select("ltag", Col("l.tag"))
        .select("rtag", Col("r.tag"))
        .build()
    )
    rows = Planner(db).plan(query).execute()
    got = sorted((row["lk"], row["ltag"], row["rtag"]) for row in rows)

    expected = sorted(
        (lk, li, ri)
        for li, lk in enumerate(left_keys)
        for ri, rk in enumerate(right_keys)
        if lk == rk
    )
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    left_keys=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        min_size=0, max_size=12,
    ),
    right_keys=st.lists(
        st.integers(min_value=0, max_value=4), min_size=0, max_size=12
    ),
)
def test_semi_plus_anti_equals_left_for_any_inputs(left_keys, right_keys):
    left_schema = TableSchema("lhs", (Column("k", DType.INT),))
    right_schema = TableSchema("rhs", (Column("k", DType.INT),))
    left = Table(left_schema, rows=[(k,) for k in left_keys], validate=False)
    right = Table(right_schema, rows=[(k,) for k in right_keys])
    stats = ExecutionStats()
    semi = list(SemiJoin(
        Scan(left, "l", stats), Scan(right, "r", stats), ["l.k"], ["r.k"]
    ))
    anti = list(AntiJoin(
        Scan(left, "l", stats), Scan(right, "r", stats), ["l.k"], ["r.k"]
    ))
    assert len(semi) + len(anti) == len(left_keys)
    right_set = {k for k in right_keys}
    for row in semi:
        assert row["l.k"] in right_set
    for row in anti:
        assert row["l.k"] is None or row["l.k"] not in right_set
