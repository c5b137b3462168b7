"""Table views: union-all over member tables.

The TPC-H setup splits LineItem into partitions; engine-level queries still
want to see one logical ``lineitem``.  A :class:`UnionTable` presents the
concatenation of its member tables without copying any rows — scans chain
the members, statistics aggregate over all of them.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from tests.engine.schema import TableSchema
from tests.engine.table import Table
from tests.engine.errors import EngineError

__all__ = ["UnionTable"]


class UnionTable(Table):
    """A read-only union-all view over tables with identical columns."""

    def __init__(self, schema: TableSchema, members: Sequence[Table]) -> None:
        if not members:
            raise EngineError("UnionTable needs at least one member")
        for member in members:
            if member.schema.column_names != schema.column_names:
                raise EngineError(
                    f"member {member.schema.name!r} columns do not match "
                    f"view {schema.name!r}"
                )
        super().__init__(schema)
        self._members = list(members)

    @property
    def members(self) -> list[Table]:
        """The underlying member tables."""
        return list(self._members)

    # -- read path (delegates to members) -----------------------------------

    @property
    def row_count(self) -> int:
        """Total rows across all members."""
        return sum(member.row_count for member in self._members)

    @property
    def size_bytes(self) -> int:
        """Total approximate size across all members."""
        return sum(member.size_bytes for member in self._members)

    def rows(self) -> Iterator[tuple]:
        """Chain the members' rows."""
        for member in self._members:
            yield from member.rows()

    def column_values(self, name: str) -> list:
        """Concatenate one column across members."""
        self.schema.index_of(name)  # validate against the view schema
        values: list = []
        for member in self._members:
            values.extend(member.column_values(name))
        return values

    def __iter__(self) -> Iterator[tuple]:
        return self.rows()

    def __len__(self) -> int:
        return self.row_count

    # -- mutation is disallowed ----------------------------------------------

    def insert(self, row, validate: bool = True) -> None:
        """Views are read-only; insert into a member table instead."""
        raise EngineError(
            f"UnionTable {self.schema.name!r} is read-only; "
            "insert into a member table"
        )
