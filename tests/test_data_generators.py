"""Unit tests: the test-side TPC-H row generator, the synthetic generator
(and its test-side rows), placements."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.data.placement import (
    round_robin_placement,
    skewed_placement,
    uniform_placement,
)
from repro.data.synthetic import generate_synthetic
from repro.data.tpch import LINEITEM_PARTITIONS, lineitem_partition_names
from repro.errors import ConfigError
from repro.sim.rng import RandomSource
from repro.testbed import SyntheticSetup
from tests.tpch_oracle import generate_tpch, synthetic_database


class TestTpch:
    def test_twelve_physical_tables(self, tpch_tiny):
        assert len(tpch_tiny.table_names) == 7 + LINEITEM_PARTITIONS

    def test_partition_names(self):
        assert lineitem_partition_names(3) == [
            "lineitem_p1", "lineitem_p2", "lineitem_p3",
        ]

    def test_partitions_union_to_combined_lineitem(self, tpch_tiny):
        combined = tpch_tiny.database.table("lineitem").row_count
        split = sum(
            tpch_tiny.database.table(name).row_count
            for name in tpch_tiny.lineitem_partitions
        )
        assert combined == split

    def test_partitioned_by_orderkey(self, tpch_tiny):
        for index, name in enumerate(tpch_tiny.lineitem_partitions):
            table = tpch_tiny.database.table(name)
            keys = table.column_values("l_orderkey")
            assert all(key % LINEITEM_PARTITIONS == index for key in keys)

    def test_relative_table_sizes(self, tpch_tiny):
        rows = tpch_tiny.row_counts
        assert rows["region"] == 5
        assert rows["nation"] == 25
        assert rows["orders"] > rows["customer"] > rows["supplier"]

    def test_foreign_keys_resolve(self, tpch_tiny):
        db = tpch_tiny.database
        customers = set(db.table("customer").column_values("c_custkey"))
        for custkey in db.table("orders").column_values("o_custkey"):
            assert custkey in customers

    def test_determinism(self):
        a = generate_tpch(scale=0.0005, seed=3)
        b = generate_tpch(scale=0.0005, seed=3)
        assert a.row_counts == b.row_counts
        assert list(a.database.table("orders")) == list(b.database.table("orders"))

    def test_seed_changes_data(self):
        a = generate_tpch(scale=0.0005, seed=3)
        b = generate_tpch(scale=0.0005, seed=4)
        assert list(a.database.table("orders")) != list(b.database.table("orders"))

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            generate_tpch(scale=0.0)

    def test_custom_partition_count(self):
        instance = generate_tpch(scale=0.0005, seed=3, partitions=3)
        assert len(instance.table_names) == 10


class TestSynthetic:
    def test_table_count_and_names(self, synthetic_small):
        assert len(synthetic_small.table_names) == 20
        assert synthetic_small.table_names[0] == "t001"

    def test_foreign_keys_reference_earlier_tables(self, synthetic_small):
        order = {name: i for i, name in enumerate(synthetic_small.table_names)}
        for child, (parent, _col) in synthetic_small.foreign_keys.items():
            assert order[parent] < order[child]

    def test_fk_values_within_parent_range(
        self, synthetic_small, synthetic_small_rows
    ):
        for child, (parent, column) in synthetic_small.foreign_keys.items():
            table = synthetic_small_rows.table(child)
            parent_rows = synthetic_small.row_counts[parent]
            for value in table.column_values(column):
                assert 0 <= value < max(parent_rows, 1)

    def test_row_counts_within_range(self, synthetic_small):
        for rows in synthetic_small.row_counts.values():
            assert 30 <= rows <= 120

    def test_schema_only_mode_reports_rows_without_materializing(self):
        instance = generate_synthetic(num_tables=5, rows_range=(10, 20), seed=1)
        database = synthetic_database(instance)
        for name in instance.table_names:
            assert database.table(name).row_count == 0
            assert 10 <= instance.row_counts[name] <= 20

    def test_determinism(self):
        a = generate_synthetic(num_tables=8, seed=5)
        b = generate_synthetic(num_tables=8, seed=5)
        assert a.row_counts == b.row_counts
        assert a.foreign_keys == b.foreign_keys

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            generate_synthetic(num_tables=0)
        with pytest.raises(ConfigError):
            generate_synthetic(num_tables=3, rows_range=(10, 5))

    def test_key_column_helper(self, synthetic_small):
        assert synthetic_small.key_column("t001") == "t001_key"


def synthetic_digest(instance, seed: int | None) -> str:
    """sha256 over an instance's names, row counts, foreign keys and every
    table schema (columns, dtypes, primary key, row width) — plus the rows
    themselves when ``seed`` (the instance's) is given."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())

    feed(
        instance.table_names,
        sorted(instance.row_counts.items()),
        sorted(instance.foreign_keys.items()),
    )
    database = synthetic_database(instance, seed)
    for name in instance.table_names:
        table = database.table(name)
        schema = table.schema
        feed(
            name,
            [(column.name, column.dtype) for column in schema.columns],
            schema.primary_key,
            schema.row_width_bytes,
        )
        if seed is not None:
            feed([tuple(row) for row in table])
    return digest.hexdigest()


class TestSyntheticPin:
    """The generator's draws, schemas and rows, pinned byte-for-byte."""

    def test_default_setup_instance(self):
        assert synthetic_digest(SyntheticSetup().instance, None) == (
            "26110428041f3e060f3d9060f7f5da4b5a8c785e53b2f7629b4a6aba377a9119"
        )

    def test_materialized_instance_with_rows(self):
        instance = generate_synthetic(num_tables=30, seed=5)
        assert synthetic_digest(instance, seed=5) == (
            "68929fdd573a946176fa6d21709510585e1a966ef5726af7a7a5d9c9a93b0f11"
        )


class TestPlacement:
    TABLES = [f"t{i}" for i in range(32)]

    def test_round_robin_spreads_evenly(self):
        placement = round_robin_placement(self.TABLES, 4)
        counts = Counter(placement.values())
        assert all(count == 8 for count in counts.values())

    def test_uniform_uses_all_sites_eventually(self):
        placement = uniform_placement(
            self.TABLES, 4, RandomSource(1, "place")
        )
        assert set(placement.values()) <= {0, 1, 2, 3}
        assert len(set(placement.values())) > 1

    def test_uniform_without_rng_degrades_to_round_robin(self):
        assert uniform_placement(self.TABLES, 4) == round_robin_placement(
            self.TABLES, 4
        )

    def test_skewed_halves_cascade(self):
        placement = skewed_placement(self.TABLES, 4)
        counts = Counter(placement.values())
        assert counts[0] == 16
        assert counts[1] == 8
        assert counts[2] == 4
        assert counts[3] == 4  # remainder lands on the last site

    def test_skewed_assigns_every_table(self):
        placement = skewed_placement(self.TABLES, 10, RandomSource(2, "p"))
        assert set(placement) == set(self.TABLES)

    def test_more_sites_than_tables(self):
        placement = skewed_placement(["a", "b"], 5)
        assert set(placement) == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ConfigError):
            round_robin_placement([], 3)
        with pytest.raises(ConfigError):
            round_robin_placement(["a"], 0)
