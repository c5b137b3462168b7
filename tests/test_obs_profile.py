"""Unit tests: the wall-clock profiler (scopes, attribution, export)."""

from __future__ import annotations

import time

import pytest

from repro.errors import SimulationError
from repro.obs.profile import (
    PROFILER,
    WallProfiler,
    profiled,
)
from repro.obs.profile import _NULL_SCOPE


class TestScopes:
    def test_nesting_records_depth_and_parent(self):
        profiler = WallProfiler(enabled=True)
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                pass
            with profiler.scope("inner"):
                pass
        names = [record.name for record in profiler.records]
        assert names == ["outer", "inner", "inner"]
        outer, first, second = profiler.records
        assert outer.depth == 0 and outer.parent is None
        assert first.depth == 1 and first.parent == 0
        assert second.depth == 1 and second.parent == 0

    def test_durations_are_positive_and_nested_inside_parent(self):
        profiler = WallProfiler(enabled=True)
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                time.sleep(0.002)
        outer, inner = profiler.records
        assert inner.duration > 0.0
        assert outer.duration >= inner.duration

    def test_disabled_profiler_hands_out_the_shared_null_scope(self):
        profiler = WallProfiler()
        assert profiler.scope("x") is _NULL_SCOPE
        assert profiler.scope("y") is _NULL_SCOPE
        with profiler.scope("x"):
            pass
        assert profiler.records == []

    def test_enable_disable_resume(self):
        profiler = WallProfiler()
        with profiler.scope("off"):
            pass
        profiler.enable()
        with profiler.scope("on"):
            pass
        profiler.disable()
        with profiler.scope("off-again"):
            pass
        assert [record.name for record in profiler.records] == ["on"]

    def test_reset_forgets_records(self):
        profiler = WallProfiler(enabled=True)
        with profiler.scope("x"):
            pass
        profiler.reset()
        assert profiler.records == []

    def test_reset_with_open_scope_raises(self):
        profiler = WallProfiler(enabled=True)
        scope = profiler.scope("open")
        scope.__enter__()
        with pytest.raises(SimulationError):
            profiler.reset()
        scope.__exit__(None, None, None)
        profiler.reset()  # fine once closed

    def test_out_of_order_close_raises(self):
        profiler = WallProfiler(enabled=True)
        outer = profiler.scope("outer")
        inner = profiler.scope("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(SimulationError):
            outer.__exit__(None, None, None)


class TestAttribution:
    def test_self_time_excludes_direct_children(self):
        profiler = WallProfiler(enabled=True)
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                time.sleep(0.002)
        table = profiler.attribution()
        outer, inner = table["outer"], table["inner"]
        assert outer["calls"] == 1 and inner["calls"] == 1
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"]
        )
        assert inner["self_s"] == pytest.approx(inner["total_s"])
        assert inner["mean_ms"] == pytest.approx(inner["total_s"] * 1e3)

    def test_repeat_calls_accumulate(self):
        profiler = WallProfiler(enabled=True)
        for _ in range(3):
            with profiler.scope("phase"):
                pass
        row = profiler.attribution()["phase"]
        assert row["calls"] == 3
        assert row["mean_ms"] == pytest.approx(row["total_s"] * 1e3 / 3)

    def test_render_lists_phases(self):
        profiler = WallProfiler(enabled=True)
        with profiler.scope("alpha"):
            pass
        text = profiler.render()
        assert "alpha" in text and "self_s" in text
        assert WallProfiler().render() == "(no profile records)"


class TestChromeExport:
    def test_export_uses_the_wall_clock_pid(self):
        profiler = WallProfiler(enabled=True)
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                pass
        trace = profiler.to_chrome_trace()
        meta = trace["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "wall-clock"
        spans = trace["traceEvents"][1:]
        assert [span["name"] for span in spans] == ["outer", "inner"]
        # Complete events on pid 2 (sim-time exports own pid 1), µs units.
        assert all(span["pid"] == 2 and span["ph"] == "X" for span in spans)
        assert spans[1]["args"]["depth"] == 1
        assert spans[0]["ts"] <= spans[1]["ts"]


class TestDecorator:
    def test_profiled_times_each_call(self):
        profiler = WallProfiler(enabled=True)

        @profiled("work", profiler=profiler)
        def work(x):
            return x * 2

        assert work(3) == 6
        assert work(4) == 8
        assert profiler.attribution()["work"]["calls"] == 2

    def test_profiled_is_free_when_disabled(self):
        profiler = WallProfiler()

        @profiled("work", profiler=profiler)
        def work():
            return "done"

        assert work() == "done"
        assert profiler.records == []

    def test_profiled_defaults_to_the_shared_profiler(self):
        @profiled("shared.work")
        def work():
            return 1

        assert PROFILER.enabled is False
        before = len(PROFILER.records)
        assert work() == 1
        assert len(PROFILER.records) == before


@pytest.mark.slow
class TestInstrumentedRun:
    def test_profiled_stream_run_attributes_hot_phases(self):
        # The real instrumentation points: a profiled online streaming run
        # must surface the scheduler/GA phases with sane nesting.  Scopes
        # are per pass, not per call: the evaluator's walk and lowering and
        # the session's dispatch run too often to carry a wrapper while
        # profiling is off.
        from repro.experiments.live import run_live

        # Twelve queries: a smaller stream forms only pairs and triples,
        # whose GA runs score every order before the first generation.
        result = run_live(profile=True, num_queries=12, rounds=2)
        table = result.profiler.attribution()
        assert "system.run" in table
        assert "online.schedule" in table
        assert "ga.run" in table and "ga.generation" in table
        assert not {"evaluator.realize", "evaluator.enumerate",
                    "online.dispatch"} & table.keys()
        assert "executor.dispatch" in table
        # GA generations nest inside ga.run: inclusive time dominates.
        assert table["ga.run"]["total_s"] >= table["ga.generation"]["total_s"]
        # system.run is the root: everything else is inside it.
        assert table["system.run"]["calls"] == 1
        assert (
            table["system.run"]["total_s"]
            >= table["executor.dispatch"]["total_s"]
        )
        # The run itself stays clean and the shared profiler was restored.
        assert PROFILER.enabled is False
