"""Synthetic schema and data generator.

The paper's second data set is "randomly generated tables based on a schema
similar with TPC-H but the number of tables can vary from 10 to 300", with
120 random queries each touching 1–10 tables (Section 4.1).  This module
generates such instances: every table gets a key column, a handful of typed
attribute columns, and (with high probability) a foreign key into an earlier
table so that multi-table queries have natural equi-join paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.rng import RandomSource

__all__ = ["SyntheticInstance", "generate_synthetic"]

#: Attribute column types, as the test-side engine's ``DType`` tags.
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

    def key_column(self, table: str) -> str:
        """Name of a table's primary key column."""
        return f"{table}_key"


def generate_synthetic(
    num_tables: int = 100,
    rows_range: tuple[int, int] = (200, 2000),
    seed: int = 11,
    fk_probability: float = 0.9,
) -> SyntheticInstance:
    """Generate a deterministic synthetic instance: its schema and the
    row count of every table (the experiments need the cardinalities, not
    the rows).

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
    """
    if num_tables < 1:
        raise ConfigError(f"num_tables must be >= 1, got {num_tables}")
    low, high = rows_range
    if low < 1 or high < low:
        raise ConfigError(f"invalid rows_range {rows_range}")

    structure = RandomSource(seed, "synthetic").spawn("structure")
    instance = SyntheticInstance(table_names=[])
    names = instance.table_names

    for index in range(num_tables):
        name = f"t{index + 1:03d}"
        columns = [(instance.key_column(name), "int")]
        if names and structure.uniform(0.0, 1.0) < fk_probability:
            fk_target = structure.choice(names)
            columns.append((f"{name}_fk_{fk_target}", "int"))
            instance.foreign_keys[name] = (fk_target, columns[-1][0])
        for attr in range(structure.randint(2, 5)):
            columns.append((f"{name}_a{attr}", structure.choice(_ATTR_TYPES)))
        instance.columns[name] = tuple(columns)
        instance.row_counts[name] = structure.randint(low, high)
        names.append(name)

    return instance
