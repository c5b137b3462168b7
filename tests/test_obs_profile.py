"""Unit tests: the wall-clock profiler (scopes, attribution, export) and
the boundary table it installs from outside."""

from __future__ import annotations

import importlib
import inspect
import pathlib
import time

import pytest

import repro
from repro.errors import SimulationError
from repro.mqo.ga import GAConfig, GAResult, GeneticAlgorithm
from repro.obs.profile import BOUNDARIES, WallProfiler

SRC = pathlib.Path(repro.__file__).resolve().parent


def small_ga_result() -> GAResult:
    """One short, seeded GA run."""
    ga = GeneticAlgorithm(
        [1, 2, 3, 4, 5], lambda order: float(order[0] * 10 + order[1]),
        config=GAConfig(population_size=6, generations=3), seed=1,
    )
    return ga.run()


def run_small_ga() -> int:
    """One short GA run; returns its generation count."""
    return small_ga_result().generations_run


def boundary_targets() -> list[tuple[type, str]]:
    """``(class, method name)`` per boundary, resolved as installing does."""
    targets = []
    for _row, module, qualname in BOUNDARIES:
        class_name, attribute = qualname.split(".")
        owner = getattr(importlib.import_module(module), class_name)
        targets.append((owner, attribute))
    return targets


class TestScopes:
    def test_nesting_records_depth_and_parent(self):
        profiler = WallProfiler()
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
        profiler = WallProfiler()
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                time.sleep(0.002)
        outer, inner = profiler.records
        assert inner.duration > 0.0
        assert outer.duration >= inner.duration

    def test_out_of_order_close_raises(self):
        profiler = WallProfiler()
        outer = profiler.scope("outer")
        inner = profiler.scope("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(SimulationError):
            outer.__exit__(None, None, None)


class TestAttribution:
    def test_self_time_excludes_direct_children(self):
        profiler = WallProfiler()
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
        profiler = WallProfiler()
        for _ in range(3):
            with profiler.scope("phase"):
                pass
        row = profiler.attribution()["phase"]
        assert row["calls"] == 3
        assert row["mean_ms"] == pytest.approx(row["total_s"] * 1e3 / 3)

    def test_render_lists_phases(self):
        profiler = WallProfiler()
        with profiler.scope("alpha"):
            pass
        text = profiler.render()
        assert "alpha" in text and "self_s" in text
        assert WallProfiler().render() == "(no profile records)"


class TestChromeExport:
    def test_export_uses_the_wall_clock_pid(self):
        profiler = WallProfiler()
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


class TestInstalled:
    def test_every_boundary_resolves_to_a_function_defined_in_src(self):
        # A renamed target must fail here, not silently drop its row.
        rows = [row for row, _module, _qualname in BOUNDARIES]
        assert len(set(rows)) == len(rows)
        for (row, _module, qualname), (owner, attribute) in zip(
            BOUNDARIES, boundary_targets()
        ):
            # Defined on the owner itself, so restoring re-binds exactly
            # what was there.
            function = vars(owner)[attribute]
            assert inspect.isfunction(function), row
            assert function.__qualname__ == qualname, row
            source = pathlib.Path(inspect.getsourcefile(function)).resolve()
            assert SRC in source.parents, row

    def test_installed_restores_every_original_even_when_the_body_raises(
        self,
    ):
        targets = boundary_targets()
        originals = [vars(owner)[attribute] for owner, attribute in targets]
        profiler = WallProfiler()
        with pytest.raises(RuntimeError, match="body failed"):
            with profiler.installed():
                for (owner, attribute), original in zip(targets, originals):
                    assert vars(owner)[attribute] is not original
                raise RuntimeError("body failed")
        for (owner, attribute), original in zip(targets, originals):
            assert vars(owner)[attribute] is original

    def test_installed_times_each_boundary_call(self):
        profiler = WallProfiler()
        with profiler.installed():
            generations = run_small_ga()
        table = profiler.attribution()
        assert table["ga.run"]["calls"] == 1
        # Once for the initial population, then once per generation.
        assert table["ga.score"]["calls"] == generations + 1
        assert table["ga.run"]["total_s"] >= table["ga.score"]["total_s"]

    def test_uninstalled_boundaries_run_unwrapped(self):
        for owner, attribute in boundary_targets():
            assert not hasattr(vars(owner)[attribute], "__wrapped__")

    def test_uninstalled_run_records_nothing_and_matches_a_timed_run(self):
        profiler = WallProfiler()
        plain = small_ga_result()
        assert profiler.records == []
        with profiler.installed():
            timed = small_ga_result()
        # The wrappers only read the timer: the run itself is unchanged.
        assert timed == plain

    def test_installing_one_profiler_leaves_another_empty(self):
        # No profiler is shared: each records only the runs it installs.
        installed, idle = WallProfiler(), WallProfiler()
        with installed.installed():
            run_small_ga()
        assert installed.records
        assert idle.records == []

    def test_records_only_while_installed(self):
        profiler = WallProfiler()
        with profiler.installed():
            run_small_ga()
        recorded = len(profiler.records)
        assert recorded > 0
        run_small_ga()
        assert len(profiler.records) == recorded
        with profiler.installed():
            run_small_ga()
        assert len(profiler.records) == 2 * recorded


@pytest.mark.slow
class TestInstrumentedRun:
    def test_profiled_stream_run_attributes_hot_phases(self):
        # The real boundaries: a profiled online streaming run must surface
        # the scheduler/GA phases with sane nesting.  Boundaries are
        # passes, not per-position calls: the evaluator's walk and
        # lowering and the session's dispatch are not in the table.
        from repro.experiments.live import run_live

        # Twelve queries: a smaller stream forms only pairs and triples,
        # whose GA runs score every order before the first generation.
        result = run_live(profile=True, num_queries=12, rounds=2)
        table = result.profiler.attribution()
        assert "system.run" in table
        assert "online.schedule" in table
        assert "ga.run" in table and "ga.score" in table
        assert not {"evaluator.realize", "evaluator.enumerate",
                    "online.dispatch"} & table.keys()
        assert "executor.dispatch" in table
        # Scoring passes nest inside ga.run: inclusive time dominates.
        assert table["ga.run"]["total_s"] >= table["ga.score"]["total_s"]
        # system.run is the root: everything else is inside it.
        assert table["system.run"]["calls"] == 1
        assert (
            table["system.run"]["total_s"]
            >= table["executor.dispatch"]["total_s"]
        )
        # The run put every original back.
        for owner, attribute in boundary_targets():
            assert not hasattr(vars(owner)[attribute], "__wrapped__")
