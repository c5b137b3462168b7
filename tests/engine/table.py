"""In-memory tables for the mini relational engine."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from tests.engine.schema import DType, TableSchema
from tests.engine.errors import EngineError

__all__ = ["Table"]

_CHECKERS = {
    DType.INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    DType.FLOAT: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    DType.STR: lambda v: isinstance(v, str),
    DType.DATE: lambda v: isinstance(v, int) and not isinstance(v, bool),
}


class Table:
    """A row-oriented in-memory table."""

    def __init__(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence] | None = None,
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self._rows: list[tuple] = []
        if rows is not None:
            for row in rows:
                self.insert(row, validate=validate)

    # -- mutation ----------------------------------------------------------

    def insert(self, row: Sequence, validate: bool = True) -> None:
        """Append one row (a sequence aligned with the schema columns)."""
        values = tuple(row)
        if len(values) != len(self.schema.columns):
            raise EngineError(
                f"row arity {len(values)} != schema arity "
                f"{len(self.schema.columns)} for table {self.schema.name!r}"
            )
        if validate:
            for value, column in zip(values, self.schema.columns):
                if value is None:
                    continue  # NULLs are allowed in every column
                if not _CHECKERS[column.dtype](value):
                    raise EngineError(
                        f"value {value!r} is not a {column.dtype} "
                        f"(column {column.name!r} of {self.schema.name!r})"
                    )
        self._rows.append(values)

    def extend(self, rows: Iterable[Sequence], validate: bool = True) -> None:
        """Append many rows."""
        for row in rows:
            self.insert(row, validate=validate)

    # -- access ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows currently stored."""
        return len(self._rows)

    @property
    def size_bytes(self) -> int:
        """Approximate storage footprint."""
        return self.row_count * self.schema.row_width_bytes

    def rows(self) -> Iterator[tuple]:
        """Iterate over raw row tuples."""
        return iter(self._rows)

    def column_values(self, name: str) -> list:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.schema.name!r}, rows={self.row_count})"
