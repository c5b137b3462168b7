"""Unit tests: workload JSON serialization round-trips."""

from __future__ import annotations

import json

import pytest

from repro.core.value import DiscountRates
from repro.errors import WorkloadError
from repro.workload.query import DSSQuery, Workload
from repro.workload.serialize import (
    load_workload,
    query_from_dict,
    query_to_dict,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)
from repro.data.tpch import tpch_instance
from repro.workload.tpch import tpch_queries, tpch_query


def build_workload() -> Workload:
    workload = Workload()
    workload.add(
        DSSQuery(
            query_id=1, name="plain", tables=("a", "b"),
            business_value=2.5, base_work=1234.0,
        ),
        arrival=3.0,
    )
    workload.add(
        DSSQuery(
            query_id=2, name="preferenced", tables=("c",),
            rates=DiscountRates(0.02, 0.07),
        ),
        arrival=9.0,
    )
    calibrated_q3 = tpch_queries(tpch_instance(scale=0.0005, seed=7))[2]
    workload.add(calibrated_q3, arrival=12.0)
    return workload


class TestQueryRoundTrip:
    def test_plain_query(self):
        original = build_workload().query(1)
        rebuilt = query_from_dict(query_to_dict(original))
        assert rebuilt.name == original.name
        assert rebuilt.tables == original.tables
        assert rebuilt.business_value == original.business_value
        assert rebuilt.base_work == original.base_work
        assert rebuilt.rates is None

    def test_rates_survive(self):
        original = build_workload().query(2)
        rebuilt = query_from_dict(query_to_dict(original))
        assert rebuilt.rates == DiscountRates(0.02, 0.07)

    def test_tpch_base_work_round_trips(self):
        original = build_workload().query(3)
        rebuilt = query_from_dict(json.loads(json.dumps(query_to_dict(original))))
        assert original.base_work is not None
        assert rebuilt.base_work == original.base_work  # bit-equal float
        assert rebuilt.tables == original.tables

    def test_bad_logical_ref_rejected(self):
        # A reference to an engine definition is no longer resolved on
        # load; costing the query by row counts instead would be silent.
        for ref in ("tpch:Q99", "tpch:Q3"):
            payload = query_to_dict(build_workload().query(1))
            payload["logical_ref"] = ref
            with pytest.raises(WorkloadError, match="logical_ref"):
                query_from_dict(payload)

    def test_missing_field_rejected(self):
        with pytest.raises(WorkloadError):
            query_from_dict({"name": "incomplete"})

    def test_every_field_round_trips_at_once(self):
        """A query with *every* serializable field populated survives a
        full JSON text round-trip with nothing dropped or approximated.

        This is the exact path journal arrival records take, so any field
        this loses would silently corrupt crash recovery.
        """
        import dataclasses

        original = dataclasses.replace(
            tpch_query("Q3", query_id=42),
            business_value=1.0 / 3.0,
            rates=DiscountRates(0.1 + 0.2, 0.07),
            base_work=9_876.5,
        )
        payload = json.loads(json.dumps(query_to_dict(original)))
        rebuilt = query_from_dict(payload)
        assert rebuilt.query_id == 42
        assert rebuilt.name == "Q3"
        assert rebuilt.tables == original.tables
        assert rebuilt.business_value == 1.0 / 3.0  # bit-equal float
        assert rebuilt.rates == DiscountRates(0.1 + 0.2, 0.07)
        assert rebuilt.base_work == 9_876.5


class TestWorkloadRoundTrip:
    def test_dict_round_trip_preserves_arrivals(self):
        workload = build_workload()
        rebuilt = workload_from_dict(workload_to_dict(workload))
        assert len(rebuilt) == len(workload)
        for query in workload.queries:
            assert rebuilt.arrival_of(query.query_id) == workload.arrival_of(
                query.query_id
            )

    def test_file_round_trip(self, tmp_path):
        workload = build_workload()
        path = tmp_path / "workload.json"
        save_workload(workload, path)
        rebuilt = load_workload(path)
        assert [q.name for q in rebuilt.queries] == [
            q.name for q in workload.queries
        ]

    def test_document_is_valid_json_with_version(self, tmp_path):
        path = tmp_path / "workload.json"
        save_workload(build_workload(), path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert len(payload["queries"]) == 3

    def test_wrong_version_rejected(self):
        with pytest.raises(WorkloadError):
            workload_from_dict({"format_version": 99, "queries": []})

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(WorkloadError):
            load_workload(path)
        path.write_text("{not json")
        with pytest.raises(WorkloadError):
            load_workload(path)

    def test_loaded_workload_is_schedulable(self, tmp_path):
        """End-to-end: a saved workload drives the MQO scheduler."""
        from repro.federation.catalog import (
            Catalog,
            FixedSyncSchedule,
            TableDef,
        )
        from repro.federation.costmodel import CostModel
        from repro.mqo.scheduler import WorkloadScheduler

        catalog = Catalog()
        for name in ("a", "b", "c"):
            catalog.add_table(TableDef(name, site=0, row_count=1_000))
            catalog.add_replica(name, FixedSyncSchedule([1.0], tail_period=4.0))

        workload = Workload()
        for index, name in enumerate(("a", "b", "c")):
            workload.add(
                DSSQuery(query_id=index + 1, name=f"q{index}", tables=(name,)),
                arrival=1.0,
            )
        path = tmp_path / "w.json"
        save_workload(workload, path)
        loaded = load_workload(path)

        scheduler = WorkloadScheduler(
            catalog, CostModel(catalog), DiscountRates(0.05, 0.05)
        )
        decision = scheduler.schedule(loaded)
        assert len(decision.result.assignments) == 3
