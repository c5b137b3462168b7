"""Synthetic schema and data generator.

The paper's second data set is "randomly generated tables based on a schema
similar with TPC-H but the number of tables can vary from 10 to 300", with
120 random queries each touching 1–10 tables (Section 4.1).  This module
generates such instances: every table gets a key column, a handful of typed
attribute columns, and (with high probability) a foreign key into an earlier
table so that multi-table queries have natural equi-join paths.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.rng import RandomSource

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.planner import Database

__all__ = ["SyntheticInstance", "generate_synthetic"]

#: Attribute column types, as :class:`~repro.engine.schema.DType` tags.
_ATTR_TYPES = ("int", "float", "str", "date")


@dataclass
class SyntheticInstance:
    """A generated synthetic database.

    Attributes
    ----------
    table_names:
        All table names, ``t001`` .. ``tNNN``, in creation order.
    foreign_keys:
        ``table -> (referenced_table, fk_column)`` join edges; queries use
        these to build connected multi-table joins.
    columns:
        ``table -> ((column, dtype tag), ...)``, the key column first.
    """

    table_names: list[str]
    foreign_keys: dict[str, tuple[str, str]] = field(default_factory=dict)
    row_counts: dict[str, int] = field(default_factory=dict)
    columns: dict[str, tuple] = field(default_factory=dict)
    _database: Database | None = field(default=None, repr=False)

    @property
    def database(self) -> Database:
        """The tables as an engine database, built on first read."""
        if self._database is None:
            self._database = self._build_database(None)
        return self._database

    def key_column(self, table: str) -> str:
        """Name of a table's primary key column."""
        return f"{table}_key"

    def _build_database(self, source: RandomSource | None) -> Database:
        """The engine database; rows are drawn from ``source`` if given."""
        from repro.engine.planner import Database
        from repro.engine.schema import Column, TableSchema
        from repro.engine.table import Table

        database = Database()
        for name in self.table_names:
            columns = tuple(Column(*spec) for spec in self.columns[name])
            table = Table(TableSchema(name, columns, (self.key_column(name),)))
            if source is not None:
                filler = source.spawn(f"rows/{name}")
                fk = self.foreign_keys.get(name)
                top = self.row_counts[fk[0]] - 1 if fk else 0
                for key in range(self.row_counts[name]):
                    record: list = [key]
                    if fk is not None:
                        record.append(filler.randint(0, top))
                    for column in columns[len(record):]:
                        record.append(_random_value(column.dtype, filler))
                    table.insert(record, validate=False)
            database.add(table)
        return database


def generate_synthetic(
    num_tables: int = 100,
    rows_range: tuple[int, int] = (200, 2000),
    seed: int = 11,
    fk_probability: float = 0.9,
    materialize_rows: bool = True,
) -> SyntheticInstance:
    """Generate a deterministic synthetic instance.

    Parameters
    ----------
    num_tables:
        How many tables (the paper varies 10–300, usually fixing 100).
    rows_range:
        Inclusive row-count range per table.
    seed:
        Root seed.
    fk_probability:
        Chance a table (beyond the first) references an earlier table.
    materialize_rows:
        When ``False``, tables are empty (and built only if ``database``
        is read) but *reported* with the drawn row counts — the
        large-instance experiments only need the cardinalities, not the
        bytes.
    """
    if num_tables < 1:
        raise ConfigError(f"num_tables must be >= 1, got {num_tables}")
    low, high = rows_range
    if low < 1 or high < low:
        raise ConfigError(f"invalid rows_range {rows_range}")

    source = RandomSource(seed, "synthetic")
    structure = source.spawn("structure")
    instance = SyntheticInstance(table_names=[])
    names = instance.table_names

    for index in range(num_tables):
        name = f"t{index + 1:03d}"
        columns = [(f"{name}_key", "int")]
        if names and structure.uniform(0.0, 1.0) < fk_probability:
            fk_target = structure.choice(names)
            columns.append((f"{name}_fk_{fk_target}", "int"))
            instance.foreign_keys[name] = (fk_target, columns[-1][0])
        for attr in range(structure.randint(2, 5)):
            columns.append((f"{name}_a{attr}", structure.choice(_ATTR_TYPES)))
        instance.columns[name] = tuple(columns)
        instance.row_counts[name] = structure.randint(low, high)
        names.append(name)

    if materialize_rows:
        instance._database = instance._build_database(source)
    return instance


def _random_value(dtype: str, rng: RandomSource):
    if dtype == "int":
        return rng.randint(0, 10_000)
    if dtype == "float":
        return round(rng.uniform(0.0, 10_000.0), 3)
    if dtype == "date":
        return rng.randint(0, 2555)
    return f"v{rng.randint(0, 9999):04d}"
