"""The committed TPC-H calibration table is what the test-side engine
computes, and the runtime refuses a pair the table does not list."""

from __future__ import annotations

import pytest

from repro.data.tpch import CALIBRATION_PATH, tpch_instance
from repro.errors import ConfigError
from repro.experiments.config import TpchSetup
from tests import tpch_calibration
from tests.engine.planner import Planner
from tests.tpch_oracle import generate_tpch, logical_query


def test_table_regenerates_hex_for_hex():
    assert CALIBRATION_PATH.read_text(encoding="utf-8") == (
        tpch_calibration.calibration_table()
    ), "the calibration table is stale: run `make calibrate`"


def test_check_mode_names_drift(tmp_path, monkeypatch, capsys):
    stale = tmp_path / "tpch_calibration.json"
    stale.write_text(
        CALIBRATION_PATH.read_text(encoding="utf-8").replace('"0x1.', '"0x1.0', 1)
    )
    monkeypatch.setattr(tpch_calibration, "CALIBRATION_PATH", stale)
    assert tpch_calibration.main(["--check"]) == 1
    assert "make calibrate" in capsys.readouterr().out


def test_setup_queries_carry_the_engine_estimate(tpch_tiny):
    setup = TpchSetup(scale=0.0005, seed=7)
    planner = Planner(tpch_tiny.database)
    for query in setup.queries():
        estimate = planner.estimate(logical_query(query.name)).work_units
        assert query.base_work == estimate
    for spec in setup.table_specs():
        assert spec.row_count == tpch_tiny.row_counts[spec.name]
        assert spec.row_bytes == (
            tpch_tiny.database.table(spec.name).schema.row_width_bytes
        )
    assert setup.instance.table_names == tuple(tpch_tiny.table_names)


def test_the_instance_matches_its_generated_rows():
    instance = tpch_instance(scale=0.001, seed=3)
    generated = generate_tpch(scale=0.001, seed=3)
    assert instance.row_counts == generated.row_counts
    assert instance.partitions == generated.partitions


@pytest.mark.parametrize("scale, seed", [(0.003, 7), (0.002, 8)])
def test_unlisted_pair_raises_config_error(scale, seed):
    with pytest.raises(ConfigError, match="make calibrate"):
        TpchSetup(scale=scale, seed=seed).queries()


def test_quickstart_at_an_unlisted_scale_raises():
    from repro import quickstart_system

    with pytest.raises(ConfigError, match="make calibrate"):
        quickstart_system(scale=0.003)
