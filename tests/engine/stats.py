"""Table statistics and selectivity estimation.

These feed the planner's cardinality estimates, which in turn calibrate the
federation cost model's processing-time estimates — the paper's "compile the
query ... to generate their computational latencies" step (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from tests.engine.expr import And, Col, Compare, Const, Expr, Not, Or
from tests.engine.table import Table

__all__ = ["ColumnStats", "TableStats", "estimate_selectivity", "join_selectivity"]

#: Selectivity assumed for predicates we cannot analyse.
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one column."""

    distinct: int
    minimum: object
    maximum: object
    null_fraction: float

    @classmethod
    def from_values(cls, values: list) -> "ColumnStats":
        """Compute stats from a column's values."""
        non_null = [value for value in values if value is not None]
        nulls = len(values) - len(non_null)
        if not non_null:
            return cls(distinct=0, minimum=None, maximum=None, null_fraction=1.0)
        return cls(
            distinct=len(set(non_null)),
            minimum=min(non_null),
            maximum=max(non_null),
            null_fraction=nulls / len(values) if values else 0.0,
        )


@dataclass(frozen=True)
class TableStats:
    """Row count and per-column statistics of one table."""

    row_count: int
    columns: dict[str, ColumnStats]

    @classmethod
    def from_table(cls, table: Table) -> "TableStats":
        """Scan a table once and summarise it."""
        columns = {
            name: ColumnStats.from_values(table.column_values(name))
            for name in table.schema.column_names
        }
        return cls(row_count=table.row_count, columns=columns)

    def column(self, name: str) -> ColumnStats | None:
        """Stats for one column, or ``None`` if unknown."""
        return self.columns.get(name)


def _range_fraction(stats: ColumnStats, op: str, value) -> float:
    """Fraction of a column's range selected by ``col <op> value``."""
    low, high = stats.minimum, stats.maximum
    if low is None or high is None:
        return DEFAULT_SELECTIVITY
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return DEFAULT_SELECTIVITY
    if not isinstance(low, (int, float)) or isinstance(low, bool):
        return DEFAULT_SELECTIVITY
    span = float(high) - float(low)
    if span <= 0:
        return 1.0 if low <= value <= high else 0.0
    if op in ("<", "<="):
        fraction = (float(value) - float(low)) / span
    else:  # ">", ">="
        fraction = (float(high) - float(value)) / span
    return min(1.0, max(0.0, fraction))


def estimate_selectivity(
    predicate: Expr,
    table_stats: dict[str, TableStats],
) -> float:
    """Estimate the fraction of rows surviving ``predicate``.

    ``table_stats`` maps *alias* (as used in qualified column names) to that
    table's :class:`TableStats`.
    """
    if isinstance(predicate, And):
        result = 1.0
        for term in predicate.conjuncts():
            result *= estimate_selectivity(term, table_stats)
        return result
    if isinstance(predicate, Or):
        left = estimate_selectivity(predicate.left, table_stats)
        right = estimate_selectivity(predicate.right, table_stats)
        return min(1.0, left + right - left * right)
    if isinstance(predicate, Not):
        return max(0.0, 1.0 - estimate_selectivity(predicate.operand, table_stats))
    if isinstance(predicate, Compare):
        return _compare_selectivity(predicate, table_stats)
    return DEFAULT_SELECTIVITY


def _compare_selectivity(
    predicate: Compare,
    table_stats: dict[str, TableStats],
) -> float:
    if predicate.is_equi_join:
        # Join predicates are handled by join_selectivity, not here.
        return 1.0
    column: Col | None = None
    constant = None
    if isinstance(predicate.left, Col) and isinstance(predicate.right, Const):
        column, constant = predicate.left, predicate.right.value
        op = predicate.op
    elif isinstance(predicate.right, Col) and isinstance(predicate.left, Const):
        column, constant = predicate.right, predicate.left.value
        op = _flip(predicate.op)
    else:
        return DEFAULT_SELECTIVITY

    stats = table_stats.get(column.table)
    col_stats = stats.column(column.column) if stats else None
    if col_stats is None:
        return DEFAULT_SELECTIVITY
    if op == "==":
        if col_stats.distinct <= 0:
            return 0.0
        return min(1.0, 1.0 / col_stats.distinct)
    if op == "!=":
        if col_stats.distinct <= 0:
            return 0.0
        return max(0.0, 1.0 - 1.0 / col_stats.distinct)
    return _range_fraction(col_stats, op, constant)


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def join_selectivity(
    left_alias: str,
    left_column: str,
    right_alias: str,
    right_column: str,
    table_stats: dict[str, TableStats],
) -> float:
    """Classic System-R equi-join selectivity: ``1 / max(d_left, d_right)``."""
    distincts = []
    for alias, column in ((left_alias, left_column), (right_alias, right_column)):
        stats = table_stats.get(alias)
        col_stats = stats.column(column) if stats else None
        if col_stats is not None and col_stats.distinct > 0:
            distincts.append(col_stats.distinct)
    if not distincts:
        return DEFAULT_SELECTIVITY
    return 1.0 / max(distincts)
