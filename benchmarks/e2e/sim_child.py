"""One sim workload run in a fresh interpreter (spawned by ``run.py``).

Usage: ``sim_child.py '<json job>'``.  Prints ``READY`` once imports and
config are done (the parent times spawn -> READY as ``setup_s``), then —
unless the job is setup-only — runs the schedule through the program's
public entry point ``repro.experiments.scale.run_schedule`` and prints
one JSON document as its last line.

The run is ``streams`` independent streams of ``queries`` queries each,
scheduled one after another (stream ``k`` is seeded ``seed * 100 + k``).
The parent reports the median stream, which a slow phase of a shared
sandbox moves far less than it moves one long stream.

Job keys: ``workload``, ``queries``, ``streams``, ``seed``,
``setup_only``, ``traced`` (install the layer wrappers), ``trace_out``
(chrome trace path), ``check_prefix`` (queries in the telemetry-on
correctness prefix, 0 = skip), ``price_telemetry`` (also run the prefix
telemetry off, to price telemetry), ``spool_dir`` (scratch inside the
checkout).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.experiments import scale  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


def _timed(config, spec) -> tuple[dict, float, float]:
    """``(result, wall seconds, cpu seconds)`` of one ``run_schedule``."""
    cpu_before = measure.own_cpu_seconds()
    started = time.perf_counter()
    # Looked up on the module at call time so an installed wrapper is seen.
    result = scale.run_schedule(config, spec)
    wall = time.perf_counter() - started
    return result, wall, measure.own_cpu_seconds() - cpu_before


def _conservation_checks(result: dict, queries: int) -> dict:
    shard_totals = [
        result["total_iv"][f"shard{index}"]
        for index in range(result["shards"])
    ]
    return {
        "conserved": result["dispatched"] + result["shed"] == queries,
        # Left-to-right sum in shard order, compared with ==, not epsilon.
        "shard_sum_exact": result["total_iv"]["online"] == sum(shard_totals),
    }


def _prefix_checks(config, spec, job: dict) -> tuple[dict, dict]:
    """Telemetry-on prefix of the schedule: checker-clean and IV-exact."""
    prefix_spec = replace(spec, queries=min(spec.queries, job["check_prefix"]))
    telemetry_config = replace(
        config, trace=True, fleet_metrics=True,
        spool_dir=os.path.join(job["spool_dir"], "spool"),
    )
    result, wall, _cpu = _timed(telemetry_config, prefix_spec)
    fleet = result["fleet"]
    checks = {
        "prefix_checker_clean": fleet["violations"] == 0,
        "prefix_nothing_dropped": fleet["dropped_events"] == 0,
        "prefix_fleet_iv_exact":
            fleet.get("total_iv") == result["total_iv"]["online"],
        **{
            f"prefix_{name}": passed
            for name, passed in _conservation_checks(
                result, prefix_spec.queries
            ).items()
        },
    }
    telemetry = {
        "queries": prefix_spec.queries,
        "telemetry_wall_s": wall,
        "fleet_collect_s": fleet["collect_wall_seconds"],
        "fleet_records": fleet["records"],
        "dropped_events": fleet["dropped_events"],
        "checker_violations": fleet["violations"],
    }
    if job.get("price_telemetry"):
        _result, plain_wall, _cpu = _timed(config, prefix_spec)
        telemetry["plain_wall_s"] = plain_wall
    return checks, telemetry


def main() -> int:
    job = json.loads(sys.argv[1])
    shape = workloads.SIM_WORKLOADS[job["workload"]]
    configs = [
        scale.ScaleConfig(
            seed=job["seed"] * 100 + stream,
            arrival_seed=job["seed"] * 100 + stream,
            **workloads.SCALE_CONFIG,
        )
        for stream in range(job.get("streams", 1))
    ]
    spec = scale.ScheduleSpec(
        job["workload"], queries=job["queries"], **shape["spec"]
    )
    recorder = None
    boundaries: list[dict] = []
    if job.get("traced"):
        recorder = layers.SpanRecorder(
            retain_spans=bool(job.get("trace_out"))
        )
        boundaries = layers.install(recorder)
    print("READY", flush=True)
    if job.get("setup_only"):
        return 0

    streams = []
    for config in configs:
        result, wall, cpu = _timed(config, spec)
        checks = _conservation_checks(result, spec.queries)
        streams.append({
            "wall_s": wall, "cpu_s": cpu, "result": result, "checks": checks,
            "lost": spec.queries - result["dispatched"] - result["shed"],
        })
    # Read the peak before the checks below allocate anything.
    hwm_kb = measure.vm_hwm_kb()
    layer_output = None
    if recorder is not None:
        layer_output = {
            **layers.layer_metrics(recorder, boundaries),
            **layers.counter_metrics(recorder),
        }

    checks = {
        name: all(stream["checks"][name] for stream in streams)
        for name in streams[0]["checks"]
    }
    telemetry = None
    if job.get("check_prefix"):
        prefix_checks, telemetry = _prefix_checks(configs[0], spec, job)
        checks.update(prefix_checks)
    queries = spec.queries * len(streams)
    lost = sum(max(0, stream["lost"]) for stream in streams)
    # Any failing check condemns the whole run, not one query.
    failed = queries if not all(checks.values()) else lost

    output = {
        "workload": job["workload"],
        "queries": queries,
        "streams": [
            {key: stream[key] for key in ("wall_s", "cpu_s", "result")}
            for stream in streams
        ],
        "vm_hwm_kb": hwm_kb,
        "checks": checks,
        "failed": failed,
        "telemetry": telemetry,
    }
    if recorder is not None:
        output["layers"] = layer_output
        output["boundaries"] = boundaries
        if job.get("trace_out"):
            recorder.write_chrome_trace(job["trace_out"])
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
