"""The repo benchmark: four workloads, end-to-end metrics, layer attribution.

Two ways in (both from the root of a checkout):

* the driver's contract, one run and one JSON line::

    python3 benchmarks/e2e/run.py --workload steady --seed 3 --seconds 15 --trace 0

  ``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``,
  ``--trace 1`` every per-layer metric;

* the report for people::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--repeats 3]
        [--layers] [--out FILE] [--trace-out FILE]
    python3 benchmarks/e2e/run.py --selfcheck | --smoke | --list-boundaries

Every run of a workload happens in a fresh interpreter this script
spawns, so memory peaks and caches do not leak between runs.  Load is
generated from this one process with at most two threads.  The metric
names, units, directions and bounds are read from ``BENCHMARK.json``;
see ``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import loadgen
import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: Spawn -> READY is sampled this many times per run; the median is
#: ``setup_s``.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_SECONDS = 170.0

#: Layer names the recorder derives from its prefixes, as the issue
#: spells them.
LAYER_RENAMES = {
    "mqo.conflict.maintain_calls": "mqo.conflict.ops",
    "sim.clock_calls": "sim.clock_events",
    "durable.journal_append_calls": "durable.journal_appends",
}
#: Contract output must be numeric: an unresolved boundary reads -1 there
#: (``null`` in the report and in ``--out`` files).
UNRESOLVED = -1.0


class BenchmarkError(RuntimeError):
    """A child process failed; no result may be printed."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- child processes ---------------------------------------------------------


class Child:
    """A spawned workload interpreter, timed from spawn to ``READY``."""

    def __init__(self, script: str, job: dict, scratch: Path) -> None:
        env = dict(os.environ, TMPDIR=str(scratch), PYTHONHASHSEED="0")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / script), json.dumps(job)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=env,
        )
        self.ready = self.process.stdout.readline().strip()
        self.setup_seconds = time.perf_counter() - started
        if not self.ready.startswith("READY"):
            self.kill()
            raise BenchmarkError(
                f"{script} did not become ready (exit "
                f"{self.process.returncode}); see its traceback above"
            )

    def finish(self, expect_output: bool = True) -> dict:
        """Wait for exit; returns the JSON document on the last line."""
        try:
            stdout, _ = self.process.communicate(
                timeout=CHILD_TIMEOUT_SECONDS
            )
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError("child exceeded its time limit") from None
        if self.process.returncode != 0:
            raise BenchmarkError(
                f"child exited with code {self.process.returncode}"
            )
        if not expect_output:
            return {}
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise BenchmarkError("child printed no result")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Scratch:
    """A per-run directory inside the checkout, removed afterwards."""

    def __enter__(self) -> Path:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK))
        return self.path

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's scratch is still there


# -- the sim workloads -------------------------------------------------------


def run_sim(
    name: str, seed: int, seconds: float, *, traced: bool = False,
    setup_samples: int = 1, check: bool = True,
    price_telemetry: bool = False, trace_out: str | None = None,
) -> dict:
    """One fresh-interpreter run of a sim workload; the child's document
    plus ``setup_samples`` (seconds, spawn -> READY)."""
    streams, queries = workloads.sim_shape(name, seconds)
    with Scratch() as scratch:
        job = {
            "workload": name,
            "queries": queries,
            "streams": streams,
            "seed": seed,
            "spool_dir": str(scratch),
        }
        setups = []
        for _ in range(setup_samples - 1):
            probe = Child("sim_child.py", {**job, "setup_only": True}, scratch)
            setups.append(probe.setup_seconds)
            probe.finish(expect_output=False)
        child = Child("sim_child.py", {
            **job,
            "traced": traced,
            "trace_out": trace_out,
            "check_prefix": workloads.CHECK_PREFIX_QUERIES if check else 0,
            "price_telemetry": price_telemetry,
        }, scratch)
        try:
            raw = child.finish()
        finally:
            child.kill()
        raw["setup_samples"] = [*setups, child.setup_seconds]
        raw["attempted"] = raw["queries"]
        return raw


def _stream_median(raw: dict, value) -> float:
    return statistics.median(value(stream) for stream in raw["streams"])


def _stream_sum(raw: dict, value) -> float:
    return sum(value(stream) for stream in raw["streams"])


def sim_end_to_end(raw: dict) -> dict:
    """Per-stream medians; IV and memory are totals over the run."""
    return {
        "setup_s": statistics.median(raw["setup_samples"]),
        "queries_per_s": _stream_median(
            raw, lambda s: s["result"]["dispatched"] / s["wall_s"]
        ),
        "cpu_ms_per_query": _stream_median(
            raw, lambda s: s["cpu_s"] * 1000.0 / s["result"]["queries"]
        ),
        "mean_iv": _stream_sum(
            raw, lambda s: s["result"]["total_iv"]["online"]
        ) / raw["queries"],
        "peak_rss_mb": raw["vm_hwm_kb"] / 1024.0,
        # No socket in a sim: the time an arrival would wait is the
        # re-optimisation pass that blocks the scheduling loop.
        "admit_p50_ms": _stream_median(
            raw, lambda s: s["result"]["reopt"]["p50_ms"]
        ),
    }


def sim_counters(raw: dict) -> dict:
    """Work counters that must repeat exactly per seed."""
    return {
        f"mqo.online.{name}": _stream_sum(raw, lambda s: s["result"][name])
        for name in ("windows", "ga_runs", "deferred", "shed")
    }


def sim_per_layer(plain: dict, traced: dict) -> dict:
    """Span sums over the traced run's streams; dagger metrics from the
    untraced run's returned dicts (sums, or medians for percentiles)."""
    layer = dict(traced["layers"])
    self_sum = sum(
        value for key, value in layer.items()
        if key.endswith("_s") and value is not None
    )
    plain_wall = _stream_sum(plain, lambda s: s["wall_s"])
    traced_wall = _stream_sum(traced, lambda s: s["wall_s"])

    def formation(key):
        return lambda s: s["result"]["group_formation"][key]

    layer.update(sim_counters(plain))
    layer.update({
        "mqo.online.reopt_p50_ms": _stream_median(
            plain, lambda s: s["result"]["reopt"]["p50_ms"]
        ),
        "mqo.online.reopt_p99_ms": _stream_median(
            plain, lambda s: s["result"]["reopt"]["p99_ms"]
        ),
        "experiments.scale.group_formation_s":
            _stream_sum(plain, formation("wall_seconds")),
        "experiments.scale.shard_run_s":
            _stream_sum(plain, lambda s: s["result"]["wall_seconds"]),
        "experiments.scale.groups": _stream_sum(plain, formation("groups")),
        "experiments.scale.largest_group": max(
            formation("largest_group")(s) for s in plain["streams"]
        ),
        "bench.trace_overhead_share": (traced_wall - plain_wall) / plain_wall,
        "bench.span_sum_share": self_sum / traced_wall,
    })
    telemetry = plain.get("telemetry")
    if telemetry and "plain_wall_s" in telemetry:
        layer.update({
            "obs.telemetry_overhead_share":
                (telemetry["telemetry_wall_s"] - telemetry["plain_wall_s"])
                / telemetry["plain_wall_s"],
            "obs.fleet_collect_s": telemetry["fleet_collect_s"],
            "obs.fleet_records": telemetry["fleet_records"],
            "obs.dropped_events": telemetry["dropped_events"],
            "obs.checker_violations": telemetry["checker_violations"],
        })
    return layer


# -- the serve workload ------------------------------------------------------


def _shutdown(child: Child, port: int, expect_output: bool) -> dict:
    loadgen.http_call("127.0.0.1", port, "POST", "/shutdown", {})
    return child.finish(expect_output=expect_output)


def run_serve(
    seed: int, seconds: float, *, traced: bool = False,
    setup_samples: int = 1,
) -> dict:
    """One open-loop run against a fresh server child."""
    host = "127.0.0.1"
    with Scratch() as scratch:
        child = Child("serve_child.py", {
            "journal": str(scratch / "serve.journal"), "traced": traced,
        }, scratch)
        try:
            port = int(child.ready.split()[1])
            count = workloads.serve_requests(seconds)
            templates = workloads.serve_templates(seed, count)
            connects: list[float] = []

            def send(index: int):
                status, reply, connect = loadgen.http_call(
                    host, port, "POST", "/submit",
                    {"template": templates[index], "wait": False},
                )
                connects.append(connect)
                ok = (
                    status == 200 and isinstance(reply, dict)
                    and "qid" in reply
                )
                return ok, reply

            with loadgen.KeepAwake():
                samples = loadgen.OpenLoop(
                    workloads.SERVE_RATE, count, send
                ).run(workloads.SERVE_CONNECTIONS)
            ivs = []
            failed = 0
            for sample in samples:
                if not sample.ok:
                    failed += 1
                    continue
                try:
                    status, reply, _ = loadgen.http_call(
                        host, port, "GET", f"/result/{sample.reply['qid']}",
                        timeout=workloads.RESULT_TIMEOUT_SECONDS,
                    )
                except (OSError, ValueError, IndexError):
                    failed += 1
                    continue
                if status == 200 and isinstance(reply, dict) and "iv" in reply:
                    ivs.append(reply["iv"])
                else:
                    failed += 1
            drained = time.perf_counter()
            server = _shutdown(child, port, True)
        finally:
            child.kill()
        # Set-up probes run after the measured child: their journals and
        # their exit would otherwise share the disk with the timed requests.
        setups = []
        for index in range(setup_samples - 1):
            probe = Child("serve_child.py", {
                "journal": str(scratch / f"probe{index}.journal"),
                "setup_only": True,
            }, scratch)
            try:
                setups.append(probe.setup_seconds)
                _shutdown(probe, int(probe.ready.split()[1]), False)
            finally:
                probe.kill()
    if not all(server["checks"].values()) or server["submitted"] != count:
        failed = count  # any failing check condemns the whole run
    return {
        "workload": "serve",
        "queries": count,
        "attempted": count,
        "failed": failed,
        "checks": server["checks"],
        "setup_samples": [*setups, child.setup_seconds],
        "latencies_ms": [sample.latency * 1000.0 for sample in samples],
        "late_ms": [sample.late * 1000.0 for sample in samples],
        "connect_ms": [value * 1000.0 for value in connects],
        "wall_s": drained - samples[0].due,
        "completed": len(ivs),
        "iv_sum": sum(ivs),
        "cpu_s": server["cpu_s"],
        "vm_hwm_kb": server["vm_hwm_kb"],
        "online": server["online"],
        "layers": server.get("layers"),
    }


def serve_end_to_end(raw: dict) -> dict:
    latencies = raw["latencies_ms"]
    return {
        "setup_s": statistics.median(raw["setup_samples"]),
        # Open loop: this is the offered rate unless the service falls
        # behind (first request due -> last result delivered).
        "queries_per_s": raw["completed"] / raw["wall_s"],
        "cpu_ms_per_query": raw["cpu_s"] * 1000.0 / raw["queries"],
        "mean_iv": raw["iv_sum"] / raw["queries"],
        "peak_rss_mb": raw["vm_hwm_kb"] / 1024.0,
        "admit_p50_ms": measure.percentile(latencies, 0.50),
    }


def serve_noisy(raw: dict) -> bool:
    """Whether the generator itself ran too late for the run to count."""
    return (
        measure.percentile(raw["late_ms"], 0.99) > workloads.NOISY_LATE_MS
    )


def serve_per_layer(plain: dict, traced: dict) -> dict:
    layer = dict(traced["layers"])
    layer.update({
        f"mqo.online.{name}": value
        for name, value in plain["online"].items()
    })
    plain_cpu = plain["cpu_s"] / plain["queries"]
    traced_cpu = traced["cpu_s"] / traced["queries"]
    layer.update({
        "serve.admit_p90_ms": measure.percentile(plain["latencies_ms"], 0.90),
        "serve.admit_p98_ms": measure.percentile(plain["latencies_ms"], 0.98),
        "serve.generator_late_p99_ms":
            measure.percentile(plain["late_ms"], 0.99),
        "serve.connect_p50_ms": measure.percentile(plain["connect_ms"], 0.50),
        # The schedule fixes the wall, so tracing is priced in server CPU.
        "bench.trace_overhead_share": (traced_cpu - plain_cpu) / plain_cpu,
    })
    return layer


# -- one run, either kind ----------------------------------------------------


def run_end_to_end(
    name: str, seed: int, seconds: float, *,
    setup_samples: int = SETUP_SAMPLES, price_telemetry: bool = False,
) -> dict:
    """One untraced run; ``{"metrics", "failed", "attempted", "raw"}``."""
    if name == "serve":
        raw = run_serve(seed, seconds, setup_samples=setup_samples)
        metrics = serve_end_to_end(raw)
        if serve_noisy(raw):
            print(
                "warning: serve generator lateness p99 above "
                f"{workloads.NOISY_LATE_MS} ms; this run is noisy",
                file=sys.stderr,
            )
    else:
        raw = run_sim(
            name, seed, seconds, setup_samples=setup_samples,
            price_telemetry=price_telemetry,
        )
        metrics = sim_end_to_end(raw)
    return {
        "metrics": metrics, "failed": raw["failed"],
        "attempted": raw["attempted"], "raw": raw,
    }


def run_per_layer(
    name: str, seed: int, seconds: float, plain: dict | None = None,
    trace_out: str | None = None, declared=(),
) -> dict:
    """The layers pass: a traced re-run read against an untraced one."""
    if plain is None:
        plain = run_end_to_end(
            name, seed, seconds, setup_samples=1, price_telemetry=True
        )["raw"]
    if name == "serve":
        traced = run_serve(seed, seconds, traced=True)
        layer = serve_per_layer(plain, traced)
    else:
        traced = run_sim(
            name, seed, seconds, traced=True, check=False,
            trace_out=trace_out,
        )
        layer = sim_per_layer(plain, traced)
    for old, new in LAYER_RENAMES.items():
        if old in layer:
            layer[new] = layer.pop(old)
    # A declared metric this workload never touches reads 0 (no calls,
    # no seconds); one whose boundary did not resolve reads None.
    metrics = {metric: layer.get(metric, 0) for metric in declared}
    return {
        "metrics": metrics,
        "failed": plain["failed"] + traced["failed"],
        "attempted": plain["attempted"] + traced["attempted"],
    }


# -- the driver's contract ---------------------------------------------------


def contract_run(bench: dict, args) -> int:
    """One run, one JSON line, exit 0 only when every output was correct."""
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        outcome = run_per_layer(
            args.workload, args.seed, args.seconds, declared=tuple(units)
        )
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        outcome = run_end_to_end(args.workload, args.seed, args.seconds)
    metrics = {
        name: {
            "value": UNRESOLVED if outcome["metrics"][name] is None
            else outcome["metrics"][name],
            "unit": unit,
        }
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if outcome["failed"] == 0 else 1


# -- the report --------------------------------------------------------------


def _bound_text(metric: dict) -> str:
    sign = "+" if metric["better"] == "lower" else "-"
    return f"{sign}{metric['bound'] * 100:g}%"


def end_to_end_pass(bench: dict, names, args) -> dict:
    """``repeats`` untraced runs per workload, summarised by median."""
    report = {}
    for name in names:
        runs = [
            run_end_to_end(
                name, args.seed, args.seconds,
                price_telemetry=args.layers,
                setup_samples=1 if args.smoke else SETUP_SAMPLES,
            )
            for _ in range(args.repeats)
        ]
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        report[name] = {
            "queries": runs[0]["raw"]["queries"],
            "end_to_end": {
                metric["name"]: {
                    **measure.summarize(
                        run["metrics"][metric["name"]] for run in runs
                    ),
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "bound": metric["bound"],
                }
                for metric in bench["end_to_end"]
            },
            "failed": failed,
            "attempted": attempted,
            "failed_share": failed / attempted,
            "counters": [
                sim_counters(run["raw"]) if name != "serve" else {}
                for run in runs
            ],
            "mean_iv_runs": [run["metrics"]["mean_iv"] for run in runs],
            "noisy": name == "serve" and any(
                serve_noisy(run["raw"]) for run in runs
            ),
            "_last_raw": runs[-1]["raw"],
        }
    return report


def print_end_to_end(bench: dict, report: dict, args) -> None:
    for name, entry in report.items():
        print(
            f"\n== {name}: {entry['queries']} queries, seed {args.seed}, "
            f"{args.repeats} repeat(s), fresh interpreter each =="
        )
        print(f"{'metric':<20}{'unit':<7}{'median':>14}{'min':>14}"
              f"{'max':>14}  bound")
        for metric in bench["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            print(
                f"{metric['name']:<20}{metric['unit']:<7}"
                f"{row['median']:>14.6g}{row['min']:>14.6g}"
                f"{row['max']:>14.6g}  {_bound_text(metric)}"
            )
        print(
            f"{'failed_share':<20}{'ratio':<7}{entry['failed_share']:>14.6g}"
            f"{'':>28}  0 absolute "
            f"({entry['failed']}/{entry['attempted']} failed)"
        )
        if name != "serve":
            print("  admit_p50_ms on a sim workload is the median "
                  "re-optimisation pass (README, 'Metrics').")
        if entry["noisy"]:
            print("  NOISY: generator lateness p99 above "
                  f"{workloads.NOISY_LATE_MS} ms; do not quote this run.")


def layers_pass(bench: dict, names, report: dict, args) -> dict:
    declared = tuple(metric["name"] for metric in bench["per_layer"])
    units = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
    layers_report = {}
    for name in names:
        outcome = run_per_layer(
            name, args.seed, args.seconds,
            plain=report[name]["_last_raw"],
            trace_out=args.trace_out if name != "serve" else None,
            declared=declared,
        )
        layers_report[name] = outcome["metrics"]
        print(f"\n== {name}: per-layer metrics (traced re-run; _s is span "
              f"self time) ==")
        for metric, value in outcome["metrics"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{metric:<42}{units[metric]:<7}{shown:>14}")
    return layers_report


def selfcheck(bench: dict, names, args) -> int:
    """A/A test: two end-to-end passes on one tree must agree in bounds."""
    first = end_to_end_pass(bench, names, args)
    second = end_to_end_pass(bench, names, args)
    failures = 0
    print(f"\n{'workload':<10}{'metric':<20}{'first':>14}{'second':>14}"
          f"{'diff':>9}{'bound':>8}")
    for name in names:
        for metric in bench["end_to_end"]:
            one = first[name]["end_to_end"][metric["name"]]["median"]
            two = second[name]["end_to_end"][metric["name"]]["median"]
            difference = abs(two - one) / abs(one)
            verdict = "" if difference <= metric["bound"] else "  DISAGREE"
            failures += bool(verdict)
            print(
                f"{name:<10}{metric['name']:<20}{one:>14.6g}{two:>14.6g}"
                f"{difference * 100:>8.2f}%{metric['bound'] * 100:>7g}%"
                f"{verdict}"
            )
        if name != "serve":
            exact = (
                first[name]["counters"] + second[name]["counters"],
                first[name]["mean_iv_runs"] + second[name]["mean_iv_runs"],
            )
            for label, values in zip(("work counters", "mean_iv"), exact):
                same = all(value == values[0] for value in values)
                failures += not same
                print(f"{name:<10}{label} repeat exactly per seed: "
                      f"{'yes' if same else 'NO'}")
        failures += first[name]["failed"] + second[name]["failed"]
    print("\nselfcheck:", "OK" if not failures else "FAILED")
    return 0 if not failures else 1


def list_boundaries() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    for row in layers.install(None, serve=True):
        state = "ok      " if row["resolved"] else "MISSING "
        print(f"{state}{row['prefix']:<34}{row['module']}:{row['qualname']}")
    return 0


def report_run(bench: dict, args) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.selfcheck:
        return selfcheck(bench, names, args)
    report = end_to_end_pass(bench, names, args)
    print_end_to_end(bench, report, args)
    layers_report = (
        layers_pass(bench, names, report, args) if args.layers else {}
    )
    failed = sum(entry["failed"] for entry in report.values())
    if args.out:
        document = {
            "meta": {
                "seed": args.seed, "seconds": args.seconds,
                "repeats": args.repeats, "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "claim": None,
            },
            "workloads": {
                name: {
                    key: value for key, value in entry.items()
                    if key not in ("_last_raw", "counters", "mean_iv_runs")
                } | {"per_layer": layers_report.get(name)}
                for name, entry in report.items()
            },
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    if failed:
        print(f"\nFAILED: {failed} operation(s) failed", file=sys.stderr)
    return 0 if not failed else 1


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: one run, one JSON line")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--trace-out",
                        help="chrome-trace JSON of the traced sim run")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes, one repeat")
    parser.add_argument("--list-boundaries", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = args.seconds or 0.4
        args.repeats = 1
        args.layers = True
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be > 0 and --repeats >= 1")
    try:
        if args.list_boundaries:
            return list_boundaries()
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return contract_run(bench, args)
        return report_run(bench, args)
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
