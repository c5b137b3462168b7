"""Relational schema objects for the mini engine.

The engine exists so the reproduction is not a pure paper exercise: the
federation cost model is *calibrated* from real row counts and join shapes
executed by this engine on generated TPC-H-style data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tests.engine.errors import EngineError

__all__ = ["Column", "TableSchema", "DType"]


class DType:
    """Supported column data types (string tags keep the engine tiny)."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"  # stored as an integer day number

    ALL = (INT, FLOAT, STR, DATE)

    #: Approximate storage width in bytes, used for transfer-size estimates.
    WIDTH = {INT: 8, FLOAT: 8, STR: 24, DATE: 8}


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    dtype: str

    def __post_init__(self) -> None:
        if self.dtype not in DType.ALL:
            raise EngineError(f"unknown dtype {self.dtype!r} for column {self.name!r}")
        if not self.name:
            raise EngineError("column name must be non-empty")

    @property
    def width_bytes(self) -> int:
        """Approximate storage width of one value."""
        return DType.WIDTH[self.dtype]


@dataclass(frozen=True)
class TableSchema:
    """A named, ordered collection of columns."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise EngineError("table name must be non-empty")
        if not self.columns:
            raise EngineError(f"table {self.name!r} needs at least one column")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise EngineError(f"table {self.name!r} has duplicate column names")
        for key in self.primary_key:
            if key not in names:
                raise EngineError(
                    f"primary key column {key!r} not in table {self.name!r}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of all columns in declaration order."""
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        for column in self.columns:
            if column.name == name:
                return column
        raise EngineError(f"table {self.name!r} has no column {name!r}")

    def index_of(self, name: str) -> int:
        """Positional index of a column."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise EngineError(f"table {self.name!r} has no column {name!r}")

    @property
    def row_width_bytes(self) -> int:
        """Approximate storage width of one row."""
        return sum(column.width_bytes for column in self.columns)

    def rename(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different table name."""
        return TableSchema(new_name, self.columns, self.primary_key)


#: A friendlier alias some examples use.
Schema = TableSchema
