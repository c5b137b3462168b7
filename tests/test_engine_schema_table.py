"""Unit tests: engine schemas and in-memory tables."""

from __future__ import annotations

import pytest

from tests.engine.schema import Column, DType, TableSchema
from tests.engine.table import Table
from tests.engine.errors import EngineError


def sample_schema() -> TableSchema:
    return TableSchema(
        "orders",
        (
            Column("o_orderkey", DType.INT),
            Column("o_totalprice", DType.FLOAT),
            Column("o_status", DType.STR),
            Column("o_date", DType.DATE),
        ),
        primary_key=("o_orderkey",),
    )


class TestSchema:
    def test_column_rejects_unknown_dtype(self):
        with pytest.raises(EngineError):
            Column("x", "decimal")

    def test_column_rejects_empty_name(self):
        with pytest.raises(EngineError):
            Column("", DType.INT)

    def test_schema_rejects_duplicate_columns(self):
        with pytest.raises(EngineError):
            TableSchema("t", (Column("a", DType.INT), Column("a", DType.INT)))

    def test_schema_rejects_empty_columns(self):
        with pytest.raises(EngineError):
            TableSchema("t", ())

    def test_schema_rejects_unknown_pk_column(self):
        with pytest.raises(EngineError):
            TableSchema("t", (Column("a", DType.INT),), primary_key=("b",))

    def test_column_lookup_and_index(self):
        schema = sample_schema()
        assert schema.column("o_status").dtype == DType.STR
        assert schema.index_of("o_totalprice") == 1
        with pytest.raises(EngineError):
            schema.column("missing")
        with pytest.raises(EngineError):
            schema.index_of("missing")

    def test_row_width_sums_column_widths(self):
        schema = sample_schema()
        assert schema.row_width_bytes == 8 + 8 + 24 + 8

    def test_rename_keeps_columns(self):
        renamed = sample_schema().rename("orders_p1")
        assert renamed.name == "orders_p1"
        assert renamed.column_names == sample_schema().column_names


class TestTable:
    def test_insert_and_iterate(self):
        table = Table(sample_schema())
        table.insert((1, 10.0, "O", 100))
        table.insert((2, 20.0, "F", 200))
        assert table.row_count == 2
        assert list(table)[1] == (2, 20.0, "F", 200)

    def test_arity_mismatch_rejected(self):
        table = Table(sample_schema())
        with pytest.raises(EngineError):
            table.insert((1, 10.0))

    def test_type_validation(self):
        table = Table(sample_schema())
        with pytest.raises(EngineError):
            table.insert(("one", 10.0, "O", 100))  # int column gets str

    def test_bool_is_not_an_int(self):
        table = Table(sample_schema())
        with pytest.raises(EngineError):
            table.insert((True, 10.0, "O", 100))

    def test_int_accepted_in_float_column(self):
        table = Table(sample_schema())
        table.insert((1, 10, "O", 100))
        assert table.row_count == 1

    def test_nulls_allowed(self):
        table = Table(sample_schema())
        table.insert((1, None, None, None))
        assert table.column_values("o_totalprice") == [None]

    def test_validation_can_be_skipped(self):
        table = Table(sample_schema())
        table.insert(("bad", "types", "here", "ok"), validate=False)
        assert table.row_count == 1

    def test_column_values_in_row_order(self):
        table = Table(sample_schema(), rows=[(3, 1.0, "a", 1), (1, 2.0, "b", 2)])
        assert table.column_values("o_orderkey") == [3, 1]

    def test_size_bytes(self):
        table = Table(sample_schema(), rows=[(1, 1.0, "x", 1)] * 10)
        assert table.size_bytes == 10 * sample_schema().row_width_bytes

    def test_extend(self):
        table = Table(sample_schema())
        table.extend([(1, 1.0, "a", 1), (2, 2.0, "b", 2)])
        assert len(table) == 2
