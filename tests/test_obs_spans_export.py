"""Unit tests: span trees and the JSONL / chrome trace exporters."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.obs import (
    build_query_spans,
    events,
    from_jsonl,
    ledger_from_records,
    normalize,
    read_jsonl,
    render_span,
    to_chrome_trace,
    to_jsonl,
    write_jsonl,
)
from repro.obs.export import record_from_dict, record_to_dict
from repro.sim.trace import TraceRecord

from tests.test_obs_checker import traced_system


class TestSpans:
    def test_one_root_span_per_query(self):
        system = traced_system(num_queries=3)
        spans = build_query_spans(system.tracer.records)
        assert len(spans) == 3
        for span, entry in zip(spans, system.ledger):
            assert span.start == entry.submitted_at
            assert span.end == entry.completed_at
            assert span.attrs["iv"] == entry.reported_iv

    def test_children_cover_ledger_phases(self):
        system = traced_system()
        span = build_query_spans(system.tracer.records)[0]
        names = [child.name for child in span.children]
        assert "processing" in names
        for child in span.walk():
            assert child.duration >= 0.0
            assert span.start <= child.start and child.end <= span.end

    def test_leg_spans_nest_under_remote_phase(self):
        system = traced_system()
        records = system.tracer.records
        has_legs = any(record.kind == events.LEG_DONE for record in records)
        if not has_legs:
            pytest.skip("scenario routed everything to replicas")
        span = build_query_spans(records)[0]
        remote = next(c for c in span.children if c.name == "remote")
        assert remote.children
        assert all(child.name.startswith("leg@site") for child in remote.children)

    def test_render_is_one_line_per_span(self):
        system = traced_system()
        span = build_query_spans(system.tracer.records)[0]
        text = render_span(span)
        assert len(text.splitlines()) == sum(1 for _ in span.walk())
        assert span.name in text

    def test_traces_without_ledger_build_no_spans(self):
        records = [TraceRecord(1.0, events.SUBMIT, "q", {"qid": 1})]
        assert build_query_spans(records) == []


class TestJsonlExport:
    def test_round_trip_is_identity(self):
        records = traced_system().tracer.records
        assert from_jsonl(to_jsonl(records)) == records

    def test_normalize_is_deterministic_across_runs(self):
        first = normalize(traced_system().tracer.records)
        second = normalize(traced_system().tracer.records)
        assert first == second

    def test_file_round_trip(self, tmp_path):
        records = traced_system().tracer.records
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(records, path)
        assert read_jsonl(path) == records

    def test_blank_lines_skipped(self):
        records = traced_system().tracer.records
        padded = "\n\n".join(to_jsonl(records).splitlines())
        assert from_jsonl(padded) == records

    def test_invalid_json_rejected_with_line_number(self):
        with pytest.raises(SimulationError, match="line 2"):
            from_jsonl('{"time": 1.0, "kind": "x", "subject": "s"}\nnot json')

    def test_missing_fields_rejected(self):
        with pytest.raises(SimulationError, match="malformed"):
            record_from_dict({"time": 1.0})

    def test_record_dict_round_trip(self):
        record = TraceRecord(1.5, "submit", "q", {"qid": 3})
        assert record_from_dict(record_to_dict(record)) == record

    def test_ledger_extraction_matches_live_ledger(self):
        system = traced_system(num_queries=2)
        revived = ledger_from_records(from_jsonl(to_jsonl(system.tracer.records)))
        assert revived == system.ledger
        for entry in revived:
            assert entry.recompute_iv() == entry.reported_iv


class TestChromeExport:
    def test_trace_event_document_shape(self):
        system = traced_system(num_queries=2)
        document = to_chrome_trace(system.tracer.records)
        assert "traceEvents" in document
        json.dumps(document)  # must be JSON-serializable
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"M", "X", "i"} <= phases

    def test_each_query_gets_a_named_thread(self):
        system = traced_system(num_queries=2)
        document = to_chrome_trace(system.tracer.records)
        thread_names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M"
        }
        for entry in system.ledger:
            assert f"query {entry.query}#{entry.query_id}" in thread_names

    def test_slices_convert_minutes_to_microseconds(self):
        system = traced_system()
        entry = system.ledger[0]
        document = to_chrome_trace(system.tracer.records)
        slices = [
            event for event in document["traceEvents"] if event["ph"] == "X"
        ]
        assert slices
        processing = next(e for e in slices if e["name"] == "processing")
        assert processing["ts"] == entry.local_granted_at * 60_000_000.0
        assert processing["dur"] == pytest.approx(entry.processing * 60_000_000.0)

    def test_sync_events_land_on_replica_threads(self):
        system = traced_system()
        document = to_chrome_trace(system.tracer.records)
        sync_events = [
            event for event in document["traceEvents"]
            if event.get("cat") == "sync"
        ]
        assert sync_events
        assert all(event["ph"] == "i" for event in sync_events)


@pytest.mark.slow
class TestOnlineRunExport:
    """The EXT4 ``stream-online`` trace survives every exporter round trip."""

    @pytest.fixture(scope="class")
    def online_system(self):
        from repro.experiments.trace_scenarios import trace_stream_online

        return trace_stream_online()

    def test_online_trace_carries_scheduler_events(self, online_system):
        kinds = {record.kind for record in online_system.tracer.records}
        assert events.MQO_WINDOW in kinds
        assert events.MQO_ADMIT in kinds

    def test_jsonl_round_trip_is_identity(self, online_system, tmp_path):
        records = online_system.tracer.records
        assert from_jsonl(to_jsonl(records)) == records
        path = str(tmp_path / "online.jsonl")
        write_jsonl(records, path)
        assert read_jsonl(path) == records

    def test_revived_ledger_matches_and_recomputes(self, online_system):
        records = from_jsonl(to_jsonl(online_system.tracer.records))
        revived = ledger_from_records(records)
        assert revived == online_system.ledger
        for entry in revived:
            assert entry.recompute_iv() == entry.reported_iv

    def test_span_trees_cover_every_ledger_entry(self, online_system):
        spans = build_query_spans(online_system.tracer.records)
        assert len(spans) == len(online_system.ledger)
        for span in spans:
            for child in span.walk():
                assert child.duration >= 0.0
                assert span.start <= child.start and child.end <= span.end

    def test_chrome_export_serializes_with_threads(self, online_system):
        document = to_chrome_trace(online_system.tracer.records)
        json.dumps(document)
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"M", "X"} <= phases

    def test_sim_and_wall_domains_merge_without_colliding(self, online_system):
        # The sim-time export owns pid 1 and the wall-clock profiler pid 2,
        # so one merged chrome://tracing file shows both timelines.
        from repro.obs.profile import WallProfiler

        profiler = WallProfiler()
        with profiler.scope("replay"):
            pass
        sim_doc = to_chrome_trace(online_system.tracer.records)
        wall_doc = profiler.to_chrome_trace()
        merged = sim_doc["traceEvents"] + wall_doc["traceEvents"]
        json.dumps({"traceEvents": merged})
        sim_pids = {event["pid"] for event in sim_doc["traceEvents"]}
        wall_pids = {event["pid"] for event in wall_doc["traceEvents"]}
        assert sim_pids == {1} and wall_pids == {2}
