"""Physical operators: scan, filter, project, hash join, aggregate, sort.

Operators are iterators over *row namespaces* — dicts keyed by qualified
``alias.column`` names — and record their work in a shared
:class:`ExecutionStats`, which the cost-model calibration reads.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from tests.engine.expr import Expr
from tests.engine.table import Table
from tests.engine.errors import EngineError

__all__ = [
    "ExecutionStats",
    "Operator",
    "Scan",
    "Filter",
    "Project",
    "HashJoin",
    "SemiJoin",
    "AntiJoin",
    "Aggregate",
    "AggSpec",
    "Distinct",
    "Sort",
    "Limit",
]


@dataclass
class ExecutionStats:
    """Work counters accumulated across an operator tree."""

    rows_scanned: int = 0
    rows_filtered: int = 0
    rows_joined: int = 0
    rows_output: int = 0
    hash_build_rows: int = 0
    operators: int = 0

    @property
    def total_work(self) -> int:
        """A single scalar 'work units' figure for cost calibration."""
        return (
            self.rows_scanned
            + self.rows_filtered
            + 2 * self.rows_joined
            + self.hash_build_rows
            + self.rows_output
        )


class Operator:
    """Base class: an iterable of row namespaces with known output columns."""

    def __init__(self, stats: ExecutionStats) -> None:
        self.stats = stats
        stats.operators += 1

    @property
    def columns(self) -> tuple[str, ...]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[dict]:
        raise NotImplementedError


class Scan(Operator):
    """Full scan of a base table under an alias."""

    def __init__(self, table: Table, alias: str, stats: ExecutionStats) -> None:
        super().__init__(stats)
        self.table = table
        self.alias = alias
        self._columns = tuple(
            f"{alias}.{name}" for name in table.schema.column_names
        )

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def __iter__(self) -> Iterator[dict]:
        names = self._columns
        for row in self.table.rows():
            self.stats.rows_scanned += 1
            yield dict(zip(names, row))


class Filter(Operator):
    """Keep only rows satisfying a predicate."""

    def __init__(self, child: Operator, predicate: Expr) -> None:
        super().__init__(child.stats)
        self.child = child
        self.predicate = predicate

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def __iter__(self) -> Iterator[dict]:
        for row in self.child:
            self.stats.rows_filtered += 1
            if self.predicate.evaluate(row):
                yield row


class Project(Operator):
    """Compute named output expressions for each row."""

    def __init__(
        self,
        child: Operator,
        outputs: Sequence[tuple[str, Expr]],
    ) -> None:
        super().__init__(child.stats)
        if not outputs:
            raise EngineError("Project needs at least one output expression")
        self.child = child
        self.outputs = list(outputs)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(name for name, _expr in self.outputs)

    def __iter__(self) -> Iterator[dict]:
        for row in self.child:
            yield {name: expr.evaluate(row) for name, expr in self.outputs}


class HashJoin(Operator):
    """Equi-join: build a hash table on the smaller (left) input, probe right."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        if left.stats is not right.stats:
            raise EngineError("join children must share one ExecutionStats")
        if len(left_keys) != len(right_keys) or not left_keys:
            raise EngineError("join needs equal, non-empty key lists")
        super().__init__(left.stats)
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns + self.right.columns

    def __iter__(self) -> Iterator[dict]:
        buckets: dict[tuple, list[dict]] = {}
        for row in self.left:
            self.stats.hash_build_rows += 1
            key = tuple(row[k] for k in self.left_keys)
            if any(part is None for part in key):
                continue  # NULL never joins
            buckets.setdefault(key, []).append(row)
        for row in self.right:
            key = tuple(row[k] for k in self.right_keys)
            if any(part is None for part in key):
                continue
            for match in buckets.get(key, ()):
                self.stats.rows_joined += 1
                merged = dict(match)
                merged.update(row)
                yield merged


class _ExistenceJoin(Operator):
    """Shared machinery for semi and anti joins (EXISTS / NOT EXISTS)."""

    _keep_matches: bool

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        if left.stats is not right.stats:
            raise EngineError("join children must share one ExecutionStats")
        if len(left_keys) != len(right_keys) or not left_keys:
            raise EngineError("join needs equal, non-empty key lists")
        super().__init__(left.stats)
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns  # existence joins keep only the left side

    def __iter__(self) -> Iterator[dict]:
        matches: set[tuple] = set()
        for row in self.right:
            self.stats.hash_build_rows += 1
            key = tuple(row[k] for k in self.right_keys)
            if any(part is None for part in key):
                continue
            matches.add(key)
        for row in self.left:
            key = tuple(row[k] for k in self.left_keys)
            has_null = any(part is None for part in key)
            found = (not has_null) and key in matches
            if found == self._keep_matches:
                self.stats.rows_joined += 1
                yield row


class SemiJoin(_ExistenceJoin):
    """Left rows with at least one key match on the right (SQL EXISTS)."""

    _keep_matches = True


class AntiJoin(_ExistenceJoin):
    """Left rows with no key match on the right (SQL NOT EXISTS).

    SQL subtlety preserved: a left row with a NULL key never matches, so it
    *is* kept by the anti join (``found`` is False).
    """

    _keep_matches = False


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: function over an expression, named ``out``."""

    func: str  # sum | count | avg | min | max
    expr: Expr | None  # None only for count(*)
    out: str

    FUNCS = ("sum", "count", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self.FUNCS:
            raise EngineError(f"unknown aggregate function {self.func!r}")
        if self.expr is None and self.func != "count":
            raise EngineError(f"aggregate {self.func} needs an expression")


class _Accumulator:
    """Online accumulator for one aggregate function."""

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def add(self, row: dict) -> None:
        if self.spec.expr is None:
            self.count += 1
            return
        value = self.spec.expr.evaluate(row)
        if value is None:
            return
        self.count += 1
        if self.spec.func in ("sum", "avg"):
            self.total += value
        elif self.spec.func == "min":
            self.minimum = value if self.minimum is None else min(self.minimum, value)
        elif self.spec.func == "max":
            self.maximum = value if self.maximum is None else max(self.maximum, value)

    def result(self):
        func = self.spec.func
        if func == "count":
            return self.count
        if func == "sum":
            return self.total if self.count else None
        if func == "avg":
            return self.total / self.count if self.count else None
        if func == "min":
            return self.minimum
        return self.maximum


class Aggregate(Operator):
    """Hash group-by with streaming accumulators."""

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[AggSpec],
    ) -> None:
        if not aggregates and not group_by:
            raise EngineError("Aggregate needs group keys or aggregate specs")
        super().__init__(child.stats)
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = list(aggregates)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.group_by + tuple(spec.out for spec in self.aggregates)

    def __iter__(self) -> Iterator[dict]:
        groups: dict[tuple, list[_Accumulator]] = {}
        order: list[tuple] = []
        for row in self.child:
            key = tuple(row[k] for k in self.group_by)
            accs = groups.get(key)
            if accs is None:
                accs = [_Accumulator(spec) for spec in self.aggregates]
                groups[key] = accs
                order.append(key)
            for acc in accs:
                acc.add(row)
        if not groups and not self.group_by:
            # SQL semantics: a global aggregate over zero rows yields one row.
            groups[()] = [_Accumulator(spec) for spec in self.aggregates]
            order.append(())
        for key in order:
            out = dict(zip(self.group_by, key))
            for acc in groups[key]:
                out[acc.spec.out] = acc.result()
            self.stats.rows_output += 1
            yield out


class Distinct(Operator):
    """Remove duplicate rows (over all columns, or a key subset)."""

    def __init__(self, child: Operator, keys: Sequence[str] | None = None) -> None:
        super().__init__(child.stats)
        self.child = child
        self.keys = tuple(keys) if keys is not None else None

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def __iter__(self) -> Iterator[dict]:
        seen: set[tuple] = set()
        key_columns = self.keys if self.keys is not None else self.child.columns
        for row in self.child:
            key = tuple(row[column] for column in key_columns)
            if key in seen:
                continue
            seen.add(key)
            self.stats.rows_output += 1
            yield row


class Sort(Operator):
    """Sort by one or more columns (NULLs last)."""

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        descending: bool = False,
    ) -> None:
        if not keys:
            raise EngineError("Sort needs at least one key column")
        super().__init__(child.stats)
        self.child = child
        self.keys = tuple(keys)
        self.descending = descending

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def __iter__(self) -> Iterator[dict]:
        rows = list(self.child)

        def sort_key(row: dict):
            parts = []
            for key in self.keys:
                value = row[key]
                parts.append((value is None, value))
            return parts

        rows.sort(key=sort_key, reverse=self.descending)
        self.stats.rows_scanned += int(
            len(rows) * math.log2(len(rows)) if len(rows) > 1 else 0
        )
        return iter(rows)


class Limit(Operator):
    """Pass through at most ``n`` rows."""

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise EngineError(f"Limit needs n >= 0, got {n}")
        super().__init__(child.stats)
        self.child = child
        self.n = n

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def __iter__(self) -> Iterator[dict]:
        remaining = self.n
        for row in self.child:
            if remaining <= 0:
                return
            remaining -= 1
            yield row
