"""Scalar and boolean expressions over qualified column names.

Expressions are evaluated against a *row namespace*: a ``dict`` mapping
``"table.column"`` qualified names to values.  The same tree supports
selectivity estimation (see :mod:`tests.engine.stats`).
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections.abc import Mapping

from tests.engine.errors import EngineError

__all__ = ["Expr", "Col", "Const", "Compare", "And", "Or", "Not", "Arith"]

_COMPARATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class Expr(ABC):
    """Base class of all expressions."""

    @abstractmethod
    def evaluate(self, row: Mapping[str, object]):
        """Value of the expression in the given row namespace."""

    @abstractmethod
    def columns(self) -> set[str]:
        """Qualified column names referenced by this expression."""

    # Operator sugar so query definitions read naturally.

    def __eq__(self, other):  # type: ignore[override]
        return Compare("==", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Compare("!=", self, _wrap(other))

    def __lt__(self, other):
        return Compare("<", self, _wrap(other))

    def __le__(self, other):
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other):
        return Compare(">", self, _wrap(other))

    def __ge__(self, other):
        return Compare(">=", self, _wrap(other))

    def __add__(self, other):
        return Arith("+", self, _wrap(other))

    def __sub__(self, other):
        return Arith("-", self, _wrap(other))

    def __mul__(self, other):
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other):
        return Arith("/", self, _wrap(other))

    def __and__(self, other):
        return And(self, _require_bool(other))

    def __or__(self, other):
        return Or(self, _require_bool(other))

    def __invert__(self):
        return Not(_require_bool(self))

    __hash__ = None  # type: ignore[assignment]


def _wrap(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    return Const(value)


def _require_bool(value) -> "Expr":
    if not isinstance(value, Expr):
        raise EngineError(f"boolean combinator needs an expression, got {value!r}")
    return value


class Col(Expr):
    """Reference to a qualified column, e.g. ``Col("orders.o_custkey")``."""

    def __init__(self, qualified: str) -> None:
        if "." not in qualified:
            raise EngineError(
                f"column reference {qualified!r} must be qualified as table.column"
            )
        self.qualified = qualified
        self.table, self.column = qualified.split(".", 1)

    def evaluate(self, row: Mapping[str, object]):
        try:
            return row[self.qualified]
        except KeyError:
            raise EngineError(f"row namespace has no column {self.qualified!r}")

    def columns(self) -> set[str]:
        return {self.qualified}

    def __repr__(self) -> str:
        return f"Col({self.qualified!r})"


class Const(Expr):
    """A literal value."""

    def __init__(self, value) -> None:
        self.value = value

    def evaluate(self, row: Mapping[str, object]):
        return self.value

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Compare(Expr):
    """A binary comparison yielding a boolean (NULL operands compare False)."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARATORS:
            raise EngineError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping[str, object]) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return False
        return bool(_COMPARATORS[self.op](left, right))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    @property
    def is_equi_join(self) -> bool:
        """True when this is ``colA == colB`` across two tables."""
        return (
            self.op == "=="
            and isinstance(self.left, Col)
            and isinstance(self.right, Col)
            and self.left.table != self.right.table
        )

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Arith(Expr):
    """Binary arithmetic (NULL propagates)."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITHMETIC:
            raise EngineError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping[str, object]):
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        return _ARITHMETIC[self.op](left, right)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """Logical conjunction."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return bool(self.left.evaluate(row)) and bool(self.right.evaluate(row))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def conjuncts(self) -> list[Expr]:
        """Flatten nested conjunctions into a list of terms."""
        terms: list[Expr] = []
        for side in (self.left, self.right):
            if isinstance(side, And):
                terms.extend(side.conjuncts())
            else:
                terms.append(side)
        return terms

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Expr):
    """Logical disjunction."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return bool(self.left.evaluate(row)) or bool(self.right.evaluate(row))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(Expr):
    """Logical negation."""

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return not bool(self.operand.evaluate(row))

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"
