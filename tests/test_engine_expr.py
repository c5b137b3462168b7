"""Unit tests: the expression tree and its operator sugar."""

from __future__ import annotations

import pytest

from tests.engine.expr import And, Col, Compare, Const, Not, Or
from tests.engine.errors import EngineError

ROW = {"o.price": 10.0, "o.qty": 3, "c.name": "acme", "o.null_col": None}


class TestCol:
    def test_requires_qualified_name(self):
        with pytest.raises(EngineError):
            Col("price")

    def test_evaluates_from_namespace(self):
        assert Col("o.price").evaluate(ROW) == 10.0

    def test_missing_column_raises(self):
        with pytest.raises(EngineError):
            Col("o.missing").evaluate(ROW)

    def test_columns_set(self):
        assert Col("o.price").columns() == {"o.price"}


class TestComparisons:
    def test_eq_builds_compare(self):
        expr = Col("o.qty") == Const(3)
        assert isinstance(expr, Compare)
        assert expr.evaluate(ROW) is True

    def test_all_operators(self):
        assert (Col("o.price") > Const(5.0)).evaluate(ROW)
        assert (Col("o.price") >= Const(10.0)).evaluate(ROW)
        assert (Col("o.price") < Const(11.0)).evaluate(ROW)
        assert (Col("o.price") <= Const(10.0)).evaluate(ROW)
        assert (Col("o.qty") != Const(4)).evaluate(ROW)

    def test_plain_values_are_wrapped(self):
        expr = Col("o.qty") == 3
        assert expr.evaluate(ROW) is True

    def test_null_comparisons_are_false(self):
        assert (Col("o.null_col") == Const(None)).evaluate(ROW) is False
        assert (Col("o.null_col") < Const(5)).evaluate(ROW) is False

    def test_unknown_operator_rejected(self):
        with pytest.raises(EngineError):
            Compare("~", Col("o.qty"), Const(1))

    def test_is_equi_join_detection(self):
        join = Compare("==", Col("o.custkey"), Col("c.custkey"))
        assert join.is_equi_join
        same_table = Compare("==", Col("o.a"), Col("o.b"))
        assert not same_table.is_equi_join
        filter_expr = Compare("==", Col("o.a"), Const(1))
        assert not filter_expr.is_equi_join


class TestArithmetic:
    def test_basic_math(self):
        assert (Col("o.price") * Const(2.0)).evaluate(ROW) == 20.0
        assert (Col("o.price") + Col("o.qty")).evaluate(ROW) == 13.0
        assert (Col("o.price") - Const(1.0)).evaluate(ROW) == 9.0
        assert (Col("o.price") / Const(4.0)).evaluate(ROW) == 2.5

    def test_null_propagates(self):
        assert (Col("o.null_col") * Const(2)).evaluate(ROW) is None

    def test_revenue_idiom(self):
        revenue = Col("o.price") * (Const(1.0) - Const(0.1))
        assert revenue.evaluate(ROW) == pytest.approx(9.0)


class TestBooleanCombinators:
    def test_and_or_not(self):
        yes = Col("o.qty") == 3
        no = Col("o.qty") == 4
        assert And(yes, yes).evaluate(ROW)
        assert not And(yes, no).evaluate(ROW)
        assert Or(no, yes).evaluate(ROW)
        assert not Or(no, no).evaluate(ROW)
        assert Not(no).evaluate(ROW)

    def test_operator_sugar(self):
        yes = Col("o.qty") == 3
        no = Col("o.qty") == 4
        assert (yes & yes).evaluate(ROW)
        assert (yes | no).evaluate(ROW)
        assert (~no).evaluate(ROW)

    def test_and_flattens_conjuncts(self):
        a = Col("o.qty") == 3
        b = Col("o.price") > 1.0
        c = Col("c.name") == "acme"
        nested = And(And(a, b), c)
        assert len(nested.conjuncts()) == 3

    def test_columns_union(self):
        expr = (Col("o.qty") == 3) & (Col("c.name") == "acme")
        assert expr.columns() == {"o.qty", "c.name"}

    def test_boolean_combinator_rejects_non_expression(self):
        with pytest.raises(EngineError):
            (Col("o.qty") == 3) & 5  # type: ignore[operator]
