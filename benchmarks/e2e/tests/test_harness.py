"""Self-tests of the benchmark harness (not part of tier-1 ``testpaths``).

Run with ``python -m pytest benchmarks/e2e/tests -q``.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import layers
import loadgen
import measure
import run
import workloads

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]


class FakeClock:
    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


# -- span self-time arithmetic ----------------------------------------------


def _nested(clock, recorder):
    """outer(10 s) -> 2 x inner(3 s) -> leaf(1 s); returns wrapped outer."""

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(1.0)

    def outer():
        clock.advance(2.0)
        wrapped_inner()
        wrapped_inner()
        clock.advance(2.0)

    wrapped_leaf = recorder.wrap("leaf", leaf)
    wrapped_inner = recorder.wrap("inner", inner)
    return recorder.wrap("outer", outer)


def test_self_time_is_duration_minus_child_cover():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock=clock, retain_spans=True)
    _nested(clock, recorder)()
    assert recorder.self_seconds == {"outer": 4.0, "inner": 4.0, "leaf": 2.0}
    assert recorder.calls == {"outer": 1, "inner": 2, "leaf": 2}
    # Self times of one run sum to the root span exactly.
    assert sum(recorder.self_seconds.values()) == clock.time == 10.0


def test_retained_spans_carry_name_start_end_parent():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock=clock, retain_spans=True)
    _nested(clock, recorder)()
    names = [span[0] for span in recorder.spans]
    assert names == ["outer", "inner", "leaf", "inner", "leaf"]
    assert [span[3] for span in recorder.spans] == [-1, 0, 1, 0, 3]
    assert recorder.spans[0][1:3] == (0.0, 10.0)
    assert recorder.spans[2][1:3] == (3.0, 4.0)
    events = recorder.chrome_trace()["traceEvents"]
    assert len(events) == 5 and events[0]["dur"] == 10.0 * 1e6


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock=clock)

    def boom():
        clock.advance(1.5)
        raise KeyError("x")

    def outer():
        with pytest.raises(KeyError):
            wrapped()
        clock.advance(0.5)

    wrapped = recorder.wrap("boom", boom)
    recorder.wrap("outer", outer)()
    assert recorder.self_seconds == {"boom": 1.5, "outer": 0.5}


def test_coroutine_boundary_is_inclusive_and_off_the_stack():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock=clock)

    def sync_child():
        clock.advance(2.0)

    wrapped_child = recorder.wrap("child", sync_child)

    async def handler():
        clock.advance(1.0)
        wrapped_child()

    asyncio.run(recorder.wrap("request", handler)())
    assert recorder.durations["request"] == [3.0]
    assert recorder.calls["request"] == 1
    assert "request" not in recorder.self_seconds
    assert recorder.self_seconds["child"] == 2.0


def test_hooks_see_arguments_and_results():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock=clock)
    result = types.SimpleNamespace(fitness_calls=3, cache_hits=9)
    wrapped = recorder.wrap(
        "mqo.ga.run", lambda: result, **layers._HOOKS["mqo.ga.run"]
    )
    wrapped()
    wrapped()
    assert layers.counter_metrics(recorder)["mqo.ga.fitness_calls"] == 6
    assert layers.counter_metrics(recorder)["mqo.ga.cache_hit_share"] == 0.75


# -- refactor-tolerant boundary table ----------------------------------------


def test_unresolved_boundary_reads_null_and_warns(monkeypatch, capsys):
    module = types.ModuleType("e2e_fake_layer")
    module.present = lambda: "kept"
    monkeypatch.setitem(sys.modules, "e2e_fake_layer", module)
    monkeypatch.setattr(layers, "BOUNDARIES", (
        ("a.present", "e2e_fake_layer", "present"),
        ("b.renamed", "e2e_fake_layer", "Gone.method"),
        ("c.module_gone", "e2e_no_such_module", "f"),
    ))
    recorder = layers.SpanRecorder(clock=FakeClock())
    rows = layers.install(recorder)
    assert [row["resolved"] for row in rows] == [True, False, False]
    assert module.present() == "kept"  # wrapped, still works
    metrics = layers.layer_metrics(recorder, rows)
    assert metrics["a.present_calls"] == 1
    assert metrics["b.renamed_s"] is None
    assert metrics["c.module_gone_calls"] is None
    warnings = capsys.readouterr().err.strip().splitlines()
    assert len(warnings) == 2 and all("null" in line for line in warnings)


def test_unresolved_layer_is_minus_one_in_contract_output(monkeypatch, capsys):
    bench = run.load_benchmark()
    monkeypatch.setattr(run, "run_per_layer", lambda *a, **k: {
        "metrics": {
            metric["name"]: None for metric in bench["per_layer"]
        },
        "failed": 0, "attempted": 7,
    })
    args = types.SimpleNamespace(
        trace=1, workload="steady", seed=1, seconds=1.0
    )
    assert run.contract_run(bench, args) == 0
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {m["value"] for m in document["metrics"].values()} == {-1.0}


# -- percentile ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
    assert measure.percentile(values, 0.5) == 5
    assert measure.percentile(values, 0.9) == 9   # one sample beyond
    assert measure.percentile(values, 0.91) == 10
    assert measure.percentile(values, 1.0) == 10
    assert measure.percentile(values, 0.0) == 1
    assert measure.percentile([4.2], 0.99) == 4.2
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1], 1.5)


def test_summarize_reports_median_min_max_count():
    assert measure.summarize([3.0, 1.0, 2.0]) == {
        "median": 2.0, "min": 1.0, "max": 3.0, "n": 3,
    }


# -- /proc parsing ------------------------------------------------------------


def test_vm_hwm_parsing():
    status = "Name:\tpython3\nVmPeak:\t  900 kB\nVmHWM:\t  136140 kB\nVmRSS:\t 5 kB\n"
    assert measure.parse_vm_hwm_kb(status) == 136140
    assert measure.parse_vm_hwm_kb("Name:\tx\nVmRSS:\t5 kB\n") is None
    assert measure.parse_vm_hwm_kb("VmHWM:\tgarbage kB\n") is None
    assert measure.vm_hwm_kb() > 1000  # this interpreter, on Linux


# -- open-loop due-time accounting --------------------------------------------


def test_a_stalled_send_charges_the_requests_behind_it():
    clock = FakeClock()
    service = {2: 1.0}  # request 2 stalls for a second; the rest take 10 ms

    def send(index):
        clock.advance(service.get(index, 0.01))
        return True, index

    samples = loadgen.OpenLoop(
        rate=10.0, count=6, send=send, now=clock, sleep=clock.advance
    ).run(workers=1)
    assert [sample.index for sample in samples] == list(range(6))
    # Due instants never move, whatever the server does.
    assert [sample.due for sample in samples] == pytest.approx(
        [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    )
    latency = [sample.latency for sample in samples]
    late = [sample.late for sample in samples]
    assert latency[:3] == pytest.approx([0.01, 0.01, 1.0])
    # 3, 4, 5 were due during the stall: they are sent late and their
    # latency counts the wait from their own due instants.
    assert late[3:] == pytest.approx([0.9, 0.81, 0.72])
    assert latency[3:] == pytest.approx([0.91, 0.82, 0.73])
    assert late[:3] == pytest.approx([0.0, 0.0, 0.0])


def test_a_failed_send_is_a_sample_not_a_crash():
    clock = FakeClock()

    def send(index):
        if index == 1:
            raise ConnectionRefusedError("down")
        return True, None

    samples = loadgen.OpenLoop(
        rate=5.0, count=3, send=send, now=clock, sleep=clock.advance
    ).run(workers=1)
    assert [sample.ok for sample in samples] == [True, False, True]


def test_two_workers_keep_at_most_two_in_flight():
    in_flight = 0
    peak = 0

    def send(index):
        nonlocal in_flight, peak
        in_flight += 1
        peak = max(peak, in_flight)
        time.sleep(0.005)
        in_flight -= 1
        return True, None

    samples = loadgen.OpenLoop(rate=400.0, count=20, send=send).run(workers=2)
    assert len(samples) == 20 and 1 <= peak <= 2


def test_noisy_flag_follows_generator_lateness():
    quiet = {"late_ms": [0.2] * 100}
    noisy = {"late_ms": [0.2] * 98 + [40.0, 41.0]}
    assert not run.serve_noisy(quiet)
    assert run.serve_noisy(noisy)


# -- sizes, failure accounting, the command itself ----------------------------


def test_sizes_at_the_fixed_run_length():
    seconds = run.load_benchmark()["run_seconds"]
    assert workloads.sim_shape("steady", seconds) == (16, 2_500)
    assert workloads.sim_shape("burst", seconds) == (18, 480)
    assert workloads.sim_shape("pressure", seconds) == (20, 1_200)
    assert workloads.serve_requests(seconds) == 250
    # A budget below one stream (--smoke) gets one shorter stream, and a
    # burst stream is always whole bursts.
    assert workloads.sim_shape("steady", 0.4) == (1, 800)
    streams, queries = workloads.sim_shape("burst", 0.4)
    assert streams == 1 and queries % 16 == 0 and queries > 0


def test_any_failed_operation_makes_the_contract_run_exit_nonzero(
    monkeypatch, capsys
):
    bench = run.load_benchmark()
    monkeypatch.setattr(run, "run_end_to_end", lambda *a, **k: {
        "metrics": {metric["name"]: 1.0 for metric in bench["end_to_end"]},
        "failed": 1, "attempted": 10,
    })
    args = types.SimpleNamespace(
        trace=0, workload="steady", seed=1, seconds=1.0
    )
    assert run.contract_run(bench, args) == 1
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert document["correct"] is False and document["failed"] == 1
    assert set(document) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_meets_the_contract_limits():
    bench = run.load_benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in bench["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128


def test_smoke_output_validates_against_benchmark_json(tmp_path):
    bench = run.load_benchmark()
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 30.0
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for name, entry in document["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name
        assert entry["failed"] == 0 and entry["failed_share"] == 0
        assert all(row["median"] > 0 for row in entry["end_to_end"].values())
        assert all(value is not None for value in entry["per_layer"].values())
    # Every metric is printed by name with its unit.
    for metric in bench["end_to_end"]:
        assert metric["name"] in done.stdout
    assert "failed_share" in done.stdout
    assert not (E2E / ".work").exists()  # scratch is cleaned up


def test_contract_run_prints_one_json_line_last(tmp_path):
    bench = run.load_benchmark()
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "pressure",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True and document["failed"] == 0
    assert list(document["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for metric in bench["end_to_end"]:
        assert document["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert document["metrics"][metric["name"]]["value"] > 0
