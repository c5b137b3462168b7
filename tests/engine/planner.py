"""Greedy join-order planner and executor for the mini engine.

The planner produces a left-deep join tree (smallest estimated input first),
an *estimated cost* in abstract work units, and can execute the plan against
a :class:`Database`.  Estimated cost is what the federation layer converts
into simulated processing minutes; executed :class:`ExecutionStats` are used
by tests to check the estimates are sane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tests.engine.expr import Col, Compare
from tests.engine.ops import (
    Aggregate,
    ExecutionStats,
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    Scan,
    Sort,
)
from tests.engine.query import LogicalQuery
from tests.engine.stats import (
    TableStats,
    estimate_selectivity,
    join_selectivity,
)
from tests.engine.table import Table
from tests.engine.errors import EngineError

__all__ = ["Database", "CostEstimate", "PhysicalPlan", "Planner"]


class Database:
    """A named collection of tables with cached statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}

    def add(self, table: Table) -> None:
        """Register a table under its schema name."""
        name = table.schema.name
        if name in self._tables:
            raise EngineError(f"table {name!r} already registered")
        self._tables[name] = table
        self._stats[name] = TableStats.from_table(table)

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise EngineError(f"database has no table {name!r}")

    def stats(self, name: str) -> TableStats:
        """Fetch (cached) statistics for a table."""
        try:
            return self._stats[name]
        except KeyError:
            raise EngineError(f"database has no table {name!r}")

    def refresh_stats(self, name: str) -> None:
        """Recompute statistics after bulk-loading more rows."""
        self._stats[name] = TableStats.from_table(self.table(name))

    @property
    def table_names(self) -> list[str]:
        """All registered table names."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables


@dataclass(frozen=True)
class CostEstimate:
    """Planner cost estimate for a query."""

    rows_scanned: float
    intermediate_rows: float
    output_rows: float

    @property
    def work_units(self) -> float:
        """Scalar work figure comparable to ``ExecutionStats.total_work``."""
        return self.rows_scanned + 2.0 * self.intermediate_rows + self.output_rows


@dataclass
class PhysicalPlan:
    """An executable operator tree plus its cost estimate."""

    query: LogicalQuery
    root: Operator
    estimate: CostEstimate
    stats: ExecutionStats
    join_order: tuple[str, ...]

    def execute(self) -> list[dict]:
        """Materialise the full result."""
        return list(self.root)


class Planner:
    """Builds physical plans with a greedy smallest-first join order."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- public API ----------------------------------------------------------

    def plan(self, query: LogicalQuery) -> PhysicalPlan:
        """Choose a join order and build the operator tree."""
        stats_by_alias = self._stats_by_alias(query)
        base_cards = self._filtered_cardinalities(query, stats_by_alias)
        join_order = self._greedy_join_order(query, base_cards, stats_by_alias)
        exec_stats = ExecutionStats()
        root, estimate = self._build_tree(
            query, join_order, base_cards, stats_by_alias, exec_stats
        )
        return PhysicalPlan(
            query=query,
            root=root,
            estimate=estimate,
            stats=exec_stats,
            join_order=tuple(join_order),
        )

    def estimate(self, query: LogicalQuery) -> CostEstimate:
        """Cost estimate without building an executable tree."""
        return self.plan(query).estimate

    # -- estimation helpers ----------------------------------------------------

    def _stats_by_alias(self, query: LogicalQuery) -> dict[str, TableStats]:
        return {
            alias: self.database.stats(table_name)
            for alias, table_name in query.tables
        }

    def _filtered_cardinalities(
        self,
        query: LogicalQuery,
        stats_by_alias: dict[str, TableStats],
    ) -> dict[str, float]:
        cards: dict[str, float] = {}
        for alias, _table_name in query.tables:
            base = float(stats_by_alias[alias].row_count)
            for predicate in query.filters_for_alias(alias):
                base *= estimate_selectivity(predicate, stats_by_alias)
            cards[alias] = max(base, 0.0)
        return cards

    def _join_terms_between(
        self,
        query: LogicalQuery,
        joined: set[str],
        candidate: str,
    ) -> list[Compare]:
        terms = []
        for term in query.join_terms():
            left = term.left
            right = term.right
            assert isinstance(left, Col) and isinstance(right, Col)
            tables = {left.table, right.table}
            if candidate in tables and tables - {candidate} <= joined and len(tables) == 2:
                terms.append(term)
        return terms

    def _greedy_join_order(
        self,
        query: LogicalQuery,
        base_cards: dict[str, float],
        stats_by_alias: dict[str, TableStats],
    ) -> list[str]:
        remaining = list(query.aliases)
        if len(remaining) == 1:
            return remaining
        # Seed with the smallest filtered table.
        order = [min(remaining, key=lambda alias: base_cards[alias])]
        remaining.remove(order[0])
        current_card = base_cards[order[0]]
        while remaining:
            best_alias = None
            best_card = math.inf
            connected_found = False
            for alias in remaining:
                terms = self._join_terms_between(query, set(order), alias)
                if terms:
                    connected_found = True
                    selectivity = 1.0
                    for term in terms:
                        left, right = term.left, term.right
                        assert isinstance(left, Col) and isinstance(right, Col)
                        selectivity *= join_selectivity(
                            left.table, left.column,
                            right.table, right.column,
                            stats_by_alias,
                        )
                    card = current_card * base_cards[alias] * selectivity
                elif not connected_found:
                    # Cross join fallback, only considered while nothing
                    # connected is available.
                    card = current_card * base_cards[alias]
                else:
                    continue
                if card < best_card:
                    best_card = card
                    best_alias = alias
            if best_alias is None:  # pragma: no cover - defensive
                best_alias = remaining[0]
                best_card = current_card * base_cards[best_alias]
            order.append(best_alias)
            remaining.remove(best_alias)
            current_card = max(best_card, 1.0)
        return order

    # -- tree construction --------------------------------------------------

    def _scan_with_filters(
        self,
        query: LogicalQuery,
        alias: str,
        exec_stats: ExecutionStats,
    ) -> Operator:
        table = self.database.table(query.table_for_alias(alias))
        node: Operator = Scan(table, alias, exec_stats)
        for predicate in query.filters_for_alias(alias):
            node = Filter(node, predicate)
        return node

    def _build_tree(
        self,
        query: LogicalQuery,
        join_order: list[str],
        base_cards: dict[str, float],
        stats_by_alias: dict[str, TableStats],
        exec_stats: ExecutionStats,
    ) -> tuple[Operator, CostEstimate]:
        rows_scanned = sum(
            float(stats_by_alias[alias].row_count) for alias in join_order
        )
        node = self._scan_with_filters(query, join_order[0], exec_stats)
        joined = {join_order[0]}
        current_card = base_cards[join_order[0]]
        intermediate = 0.0
        for alias in join_order[1:]:
            right = self._scan_with_filters(query, alias, exec_stats)
            terms = self._join_terms_between(query, joined, alias)
            if terms:
                left_keys, right_keys = [], []
                selectivity = 1.0
                for term in terms:
                    first, second = term.left, term.right
                    assert isinstance(first, Col) and isinstance(second, Col)
                    if first.table == alias:
                        first, second = second, first
                    left_keys.append(first.qualified)
                    right_keys.append(second.qualified)
                    selectivity *= join_selectivity(
                        first.table, first.column,
                        second.table, second.column,
                        stats_by_alias,
                    )
                node = HashJoin(node, right, left_keys, right_keys)
                current_card = current_card * base_cards[alias] * selectivity
            else:
                # Cross join expressed as a join on a constant-true key.
                node = _CrossJoin(node, right)
                current_card = current_card * base_cards[alias]
            current_card = max(current_card, 1.0)
            intermediate += current_card
            joined.add(alias)

        # Residual predicates touching several tables but not equi-joins.
        residual = [
            pred
            for pred in query.filter_terms()
            if len({q.split(".", 1)[0] for q in pred.columns()}) > 1
        ]
        for predicate in residual:
            node = Filter(node, predicate)
            current_card *= estimate_selectivity(predicate, stats_by_alias)

        output_rows = current_card
        if query.aggregates:
            node = Aggregate(node, query.group_by, query.aggregates)
            if query.group_by:
                distinct = 1.0
                for qualified in query.group_by:
                    alias, column = qualified.split(".", 1)
                    col_stats = stats_by_alias.get(alias)
                    per_col = (
                        col_stats.column(column).distinct
                        if col_stats and col_stats.column(column)
                        else 10
                    )
                    distinct *= max(per_col, 1)
                output_rows = min(current_card, distinct)
            else:
                output_rows = 1.0
        elif query.projections:
            node = Project(node, query.projections)

        if query.order_by:
            node = Sort(node, query.order_by, descending=query.descending)
        if query.limit is not None:
            node = Limit(node, query.limit)
            output_rows = min(output_rows, float(query.limit))

        estimate = CostEstimate(
            rows_scanned=rows_scanned,
            intermediate_rows=intermediate,
            output_rows=max(output_rows, 1.0),
        )
        return node, estimate


class _CrossJoin(Operator):
    """Nested-loop cross product (rare fallback for disconnected queries)."""

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left.stats)
        self.left = left
        self.right = right

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns + self.right.columns

    def __iter__(self):
        right_rows = list(self.right)
        self.stats.hash_build_rows += len(right_rows)
        for left_row in self.left:
            for right_row in right_rows:
                self.stats.rows_joined += 1
                merged = dict(left_row)
                merged.update(right_row)
                yield merged
