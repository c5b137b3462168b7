"""Logical query representation for the mini engine.

A :class:`LogicalQuery` is a select-project-join-aggregate block: a set of
aliased tables, a conjunctive predicate list (equi-join terms are detected
automatically), optional grouping/aggregation, projection, ordering and a
limit.  It deliberately covers exactly the shape of the TPC-H workload the
paper evaluates — multi-way equi-joins with filters and aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tests.engine.expr import Col, Compare, Expr
from tests.engine.ops import AggSpec
from tests.engine.errors import EngineError

__all__ = ["LogicalQuery", "QueryBuilder"]


@dataclass(frozen=True)
class LogicalQuery:
    """An SPJA query block over aliased tables."""

    name: str
    tables: tuple[tuple[str, str], ...]  # (alias, table_name)
    predicates: tuple[Expr, ...] = ()
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggSpec, ...] = ()
    projections: tuple[tuple[str, Expr], ...] = ()
    order_by: tuple[str, ...] = ()
    descending: bool = False
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.tables:
            raise EngineError(f"query {self.name!r} references no tables")
        aliases = [alias for alias, _name in self.tables]
        if len(set(aliases)) != len(aliases):
            raise EngineError(f"query {self.name!r} has duplicate aliases")
        if self.aggregates and self.projections:
            raise EngineError(
                f"query {self.name!r}: use aggregates or projections, not both"
            )

    @property
    def aliases(self) -> tuple[str, ...]:
        """All table aliases in declaration order."""
        return tuple(alias for alias, _name in self.tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        """All referenced base-table names (with duplicates removed)."""
        seen: list[str] = []
        for _alias, name in self.tables:
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def table_for_alias(self, alias: str) -> str:
        """The base-table name behind an alias."""
        for candidate, name in self.tables:
            if candidate == alias:
                return name
        raise EngineError(f"query {self.name!r} has no alias {alias!r}")

    def join_terms(self) -> list[Compare]:
        """The equi-join predicates among :attr:`predicates`."""
        return [
            pred
            for pred in self.predicates
            if isinstance(pred, Compare) and pred.is_equi_join
        ]

    def filter_terms(self) -> list[Expr]:
        """Predicates that are not equi-joins (single-table filters etc.)."""
        joins = set(map(id, self.join_terms()))
        return [pred for pred in self.predicates if id(pred) not in joins]

    def filters_for_alias(self, alias: str) -> list[Expr]:
        """Filter terms that reference only the given alias."""
        selected = []
        for pred in self.filter_terms():
            referenced = {qualified.split(".", 1)[0] for qualified in pred.columns()}
            if referenced == {alias}:
                selected.append(pred)
        return selected


@dataclass
class QueryBuilder:
    """Fluent builder for :class:`LogicalQuery`.

    Example::

        query = (
            QueryBuilder("revenue_by_nation")
            .table("orders", alias="o")
            .table("customer", alias="c")
            .where(Col("o.o_custkey") == Col("c.c_custkey"))
            .group("c.c_nationkey")
            .agg("sum", Col("o.o_totalprice"), "revenue")
            .build()
        )
    """

    name: str
    _tables: list[tuple[str, str]] = field(default_factory=list)
    _predicates: list[Expr] = field(default_factory=list)
    _group_by: list[str] = field(default_factory=list)
    _aggregates: list[AggSpec] = field(default_factory=list)
    _projections: list[tuple[str, Expr]] = field(default_factory=list)
    _order_by: list[str] = field(default_factory=list)
    _descending: bool = False
    _limit: int | None = None

    def table(self, table_name: str, alias: str | None = None) -> "QueryBuilder":
        """Add a table under an optional alias (defaults to its own name)."""
        self._tables.append((alias or table_name, table_name))
        return self

    def where(self, predicate: Expr) -> "QueryBuilder":
        """Add one conjunctive predicate."""
        self._predicates.append(predicate)
        return self

    def join(self, left: str, right: str) -> "QueryBuilder":
        """Shorthand for ``where(Col(left) == Col(right))``."""
        return self.where(Col(left) == Col(right))

    def group(self, *columns: str) -> "QueryBuilder":
        """Group by qualified columns."""
        self._group_by.extend(columns)
        return self

    def agg(self, func: str, expr: Expr | None, out: str) -> "QueryBuilder":
        """Add an aggregate output."""
        self._aggregates.append(AggSpec(func, expr, out))
        return self

    def select(self, out: str, expr: Expr) -> "QueryBuilder":
        """Add a plain projection output."""
        self._projections.append((out, expr))
        return self

    def order(self, *columns: str, descending: bool = False) -> "QueryBuilder":
        """Order the result."""
        self._order_by.extend(columns)
        self._descending = descending
        return self

    def take(self, n: int) -> "QueryBuilder":
        """Limit the result to ``n`` rows."""
        self._limit = n
        return self

    def build(self) -> LogicalQuery:
        """Freeze into an immutable :class:`LogicalQuery`."""
        return LogicalQuery(
            name=self.name,
            tables=tuple(self._tables),
            predicates=tuple(self._predicates),
            group_by=tuple(self._group_by),
            aggregates=tuple(self._aggregates),
            projections=tuple(self._projections),
            order_by=tuple(self._order_by),
            descending=self._descending,
            limit=self._limit,
        )
