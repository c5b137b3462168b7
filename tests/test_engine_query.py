"""Unit tests: logical query representation and builder."""

from __future__ import annotations

import pytest

from tests.engine.expr import Col, Const
from tests.engine.query import LogicalQuery, QueryBuilder
from tests.engine.errors import EngineError


def sample_query() -> LogicalQuery:
    return (
        QueryBuilder("q")
        .table("orders", "o")
        .table("customer", "c")
        .join("o.o_cust", "c.c_id")
        .where(Col("o.o_price") > Const(10.0))
        .group("c.c_nation")
        .agg("sum", Col("o.o_price"), "rev")
        .build()
    )


class TestValidation:
    def test_requires_tables(self):
        with pytest.raises(EngineError):
            QueryBuilder("empty").build()

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(EngineError):
            (QueryBuilder("dup")
             .table("orders", "o").table("customer", "o").build())

    def test_aggregates_and_projections_exclusive(self):
        with pytest.raises(EngineError):
            (QueryBuilder("both")
             .table("orders", "o")
             .agg("count", None, "n")
             .select("x", Col("o.o_id"))
             .build())


class TestAccessors:
    def test_aliases_and_table_names(self):
        query = sample_query()
        assert query.aliases == ("o", "c")
        assert query.table_names == ("orders", "customer")

    def test_table_names_deduplicate_self_joins(self):
        query = (
            QueryBuilder("self")
            .table("nation", "n1").table("nation", "n2")
            .join("n1.n_regionkey", "n2.n_regionkey")
            .build()
        )
        assert query.table_names == ("nation",)

    def test_table_for_alias(self):
        query = sample_query()
        assert query.table_for_alias("c") == "customer"
        with pytest.raises(EngineError):
            query.table_for_alias("zz")

    def test_join_terms_vs_filter_terms(self):
        query = sample_query()
        assert len(query.join_terms()) == 1
        assert len(query.filter_terms()) == 1

    def test_filters_for_alias(self):
        query = sample_query()
        assert len(query.filters_for_alias("o")) == 1
        assert query.filters_for_alias("c") == []

    def test_multi_table_filter_not_attributed_to_single_alias(self):
        query = (
            QueryBuilder("multi")
            .table("orders", "o").table("customer", "c")
            .join("o.o_cust", "c.c_id")
            .where(Col("o.o_price") > Col("c.c_nation"))
            .build()
        )
        assert query.filters_for_alias("o") == []
        assert query.filters_for_alias("c") == []
        assert len(query.filter_terms()) == 1


class TestBuilder:
    def test_alias_defaults_to_table_name(self):
        query = QueryBuilder("q").table("orders").build()
        assert query.aliases == ("orders",)

    def test_order_and_take(self):
        query = (
            QueryBuilder("q")
            .table("orders", "o")
            .select("id", Col("o.o_id"))
            .order("id", descending=True)
            .take(5)
            .build()
        )
        assert query.order_by == ("id",)
        assert query.descending
        assert query.limit == 5
