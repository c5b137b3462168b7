"""Command-line entry point: ``python -m repro <experiment>``.

Regenerates any of the paper's figures at full size, as aligned text tables
(default), CSV, or JSON (``--format``), optionally writing to a file
(``--output``).  The benchmark suite runs reduced-size versions of the same
code; this CLI is the full-fidelity path.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import typing
from collections.abc import Callable

from repro._version import __version__

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reporting.tables import ResultTable

__all__ = ["main", "EXPERIMENTS"]


def _fig4_tables() -> list[ResultTable]:
    from repro.experiments.fig4_walkthrough import run_fig4
    from repro.reporting.tables import ResultTable

    outcome = run_fig4()
    summary = ResultTable(
        title="Figure 4 walkthrough (scatter-and-gather)",
        headers=["quantity", "value"],
    )
    summary.add("scatter_incumbent_iv", outcome.scatter_iv)
    summary.add("initial_bound", outcome.initial_bound)
    summary.add("chosen_plan", outcome.chosen.describe())
    summary.add("oracle_plan", outcome.oracle.describe())
    summary.add("plans_evaluated", outcome.diagnostics.plans_evaluated)
    summary.add("time_lines_visited", outcome.diagnostics.time_lines_visited)
    summary.add("bound_tightenings", outcome.diagnostics.bound_tightenings)
    return [summary, outcome.candidates]


def _tables(module: str, *runners: str) -> Callable[[], list[ResultTable]]:
    """An experiment that imports its harness module only when it runs."""

    def run() -> list[ResultTable]:
        loaded = importlib.import_module(f"repro.experiments.{module}")
        return [getattr(loaded, runner)() for runner in runners]

    return run


#: Each experiment yields one or more result tables.
EXPERIMENTS: dict[str, Callable[[], list[ResultTable]]] = {
    "fig4": _fig4_tables,
    "fig5": _tables("fig5", "run_fig5"),
    "fig6": _tables("fig6", "run_fig6"),
    "fig7": _tables("fig7", "run_fig7"),
    "fig8": _tables("fig8", "run_fig8"),
    "fig9": _tables("fig9", "run_fig9a", "run_fig9b"),
    "ablations": _tables(
        "ablations", "run_aging_ablation", "run_search_ablation",
        "run_advisor_ablation", "run_routing_ablation", "run_ga_ablation",
    ),
    "sensitivity": _tables("sensitivity", "run_sensitivity"),
    "load": _tables("load", "run_load_sweep"),
    "faults": _tables("faults", "run_fault_sweep"),
    "stream-mqo": _tables("stream_mqo", "run_stream_mqo"),
    "scale": _tables("scale", "run_scale"),
}

#: (group_by, series, value) specs for ``--chart``, where a grouped bar
#: rendering of the result table mirrors the paper's bar-chart figures.
CHART_SPECS: dict[str, tuple[tuple[str, ...], str, str]] = {
    "fig5": (("fq_fs", "lambda_sl", "lambda_cl"), "approach", "mean_iv"),
    "fig8": (("placement", "sites"), "approach", "mean_iv"),
    "load": (("interarrival_min",), "approach", "mean_iv"),
    "faults": (("outage_rate", "policy"), "approach", "mean_iv"),
    "stream-mqo": (("interarrival",), "approach", "mean_iv"),
}


def _run_trace(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: run a scenario, export/audit its trace."""
    import json

    from repro.experiments.trace_scenarios import TRACE_SCENARIOS
    from repro.obs import (
        TraceChecker,
        build_query_spans,
        render_span,
        to_chrome_trace,
        to_jsonl,
    )

    name = args.scenario or "fig4"
    if name not in TRACE_SCENARIOS:
        parser.error(
            f"unknown trace scenario {name!r} "
            f"(expected one of {', '.join(sorted(TRACE_SCENARIOS))})"
        )
    system = TRACE_SCENARIOS[name]()
    records = system.tracer.records

    if args.trace_format == "jsonl":
        body = to_jsonl(records)
    elif args.trace_format == "chrome":
        body = json.dumps(to_chrome_trace(records), indent=2)
    elif args.trace_format == "spans":
        body = "\n\n".join(
            render_span(span) for span in build_query_spans(records)
        )
    else:
        body = system.tracer.timeline()
    if args.metrics:
        metrics = json.dumps(system.metrics(), indent=2, sort_keys=True)
        body = f"{body}\n\n{metrics}"

    exit_code = 0
    if args.check:
        violations = TraceChecker().check(records)
        if violations:
            listing = "\n".join(str(violation) for violation in violations)
            body = (
                f"{body}\n\ntrace-check: {len(violations)} violation(s)\n{listing}"
            )
            exit_code = 1
        else:
            body = (
                f"{body}\n\ntrace-check: OK "
                f"({len(records)} records, {len(system.ledger)} ledger entries)"
            )

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(body + "\n")
    else:
        try:
            print(body)
        except BrokenPipeError:
            return exit_code
    return exit_code


def _run_live_stream(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``stream-mqo --live-metrics``: the online run with telemetry attached."""
    from repro.experiments.live import run_live
    from repro.obs import TraceChecker, load_slo_rules
    from repro.reporting.dashboard import live_report_html, render_dashboard

    rules = load_slo_rules(args.slo) if args.slo else None
    result = run_live(rules=rules, profile=args.profile)
    profile_table = (
        result.profiler.render() if result.profiler is not None else None
    )
    body = render_dashboard(
        result.snapshots[-1], alerts=result.alerts,
        profile_table=profile_table,
    )

    checker = TraceChecker()
    violations = checker.check_system(result.system)
    violations += checker.check_slo(
        result.system.tracer.records, result.monitor.rules,
        window=result.registry.window, half_life=result.registry.half_life,
    )
    if violations:
        listing = "\n".join(str(violation) for violation in violations)
        body += f"\ntrace-check: {len(violations)} violation(s)\n{listing}\n"
    else:
        body += (
            f"\ntrace-check: OK ({len(result.system.tracer)} records, "
            f"{len(result.alerts)} alerts audited)\n"
        )

    if args.html:
        report = live_report_html(
            result.snapshots,
            result.alerts,
            profile=(
                result.profiler.attribution()
                if result.profiler is not None
                else None
            ),
        )
        with open(args.html, "w") as handle:
            handle.write(report + "\n")
        body += f"html report written to {args.html}\n"

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(body)
    else:
        try:
            print(body, end="")
        except BrokenPipeError:
            pass
    return 1 if violations else 0


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: run the wall-clock HTTP query service until shutdown."""
    import asyncio

    from repro.serve import HTTPServer, QueryService, ServeConfig

    from repro.serve.service import journal_serve_config

    async def serve() -> int:
        if args.resume and args.journal:
            # The journal header's config wins: resume must rebuild the
            # crashed run's exact scheduler or the replay diverges.
            service = QueryService(
                journal_serve_config(args.journal),
                journal=args.journal, resume=True,
            )
            if service.resumed_at_pops is not None:
                print(
                    f"resumed from {args.journal} at pop "
                    f"{service.resumed_at_pops} "
                    f"({len(service.results)} results restored)"
                )
        else:
            service = QueryService(ServeConfig(
                seconds_per_minute=args.seconds_per_minute,
                snapshot_every=args.snapshot_every,
            ), journal=args.journal)
        server = HTTPServer(service, host=args.host, port=args.port)
        await server.start()
        host, port = server.address
        print(f"repro serve listening on http://{host}:{port}")
        print(
            "  POST /submit {\"template\": <index|name>, \"wait\": true} | "
            "GET /result/<qid> | /metrics | /status | /healthz | "
            "POST /checkpoint | POST /shutdown"
        )
        print(f"  templates: {', '.join(t.name for t in service.templates)}")
        try:
            await server.serve_until_shutdown()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            await server.stop()
        violations = service.check_trace()
        replay_ok = service.replay().decisions == service.session.decisions
        print(
            f"drained: {len(service.results)} results, "
            f"{len(violations)} trace violations, "
            f"replay {'equal' if replay_ok else 'DIVERGED'}"
        )
        return 0 if not violations and replay_ok else 1

    return asyncio.run(serve())


def _run_serve_bench(args: argparse.Namespace) -> int:
    """``serve-bench``: the two-phase HTTP load bench (BENCH_serve shape)."""
    import asyncio
    import json

    from repro.serve.bench import serve_bench

    data = asyncio.run(serve_bench())
    body = json.dumps(data, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(body + "\n")
    else:
        print(body)
    ok = not data["trace"]["violations"] and data["trace"]["replay_equal"]
    return 0 if ok else 1


def _run_resume_verify(args: argparse.Namespace) -> int:
    """``resume-verify``: audit a serve journal end-to-end.

    Recovers the journal twice (pure replay and via its last snapshot)
    with a scheduler rebuilt from the journal header's own config, and
    requires both recoveries to agree bit-for-bit — see
    :func:`repro.durable.recovery.verify_journal`.
    """
    import json

    from repro.durable import verify_journal
    from repro.serve.service import build_serve_scheduler, journal_serve_config

    config = journal_serve_config(args.journal)
    report = verify_journal(
        args.journal, lambda: build_serve_scheduler(config)[0]
    )
    body = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(body + "\n")
    else:
        print(body)
    return 0 if report["ok"] else 1


def _run_scale_fleet(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``scale --trace/--fleet-metrics``: EXT5 with the fleet telemetry stack.

    Runs the sweep with per-shard tracing, merges the traces the shards
    return through the :class:`~repro.obs.fleet.FleetCollector`, renders
    one fleet dashboard per schedule (with ``--fleet-metrics``, plus the
    collector's registry folded over the merged trace), optionally writes
    chrome traces / an HTML report, and exits non-zero on any cross-shard
    checker violation.
    """
    import json
    from dataclasses import replace

    from repro.experiments.scale import (
        DEFAULT_SCHEDULES,
        ScaleConfig,
        run_scale_sweep,
    )
    from repro.reporting.dashboard import fleet_report_html, render_fleet_dashboard
    from repro.reporting.export import render
    from repro.reporting.tables import ResultTable

    schedules = DEFAULT_SCHEDULES
    if args.schedule:
        matching = tuple(
            spec for spec in schedules if spec.name == args.schedule
        )
        if not matching:
            parser.error(
                f"unknown schedule {args.schedule!r} "
                f"(expected one of {', '.join(s.name for s in schedules)})"
            )
        schedules = matching
    if args.queries:
        schedules = tuple(
            replace(spec, queries=args.queries) for spec in schedules
        )
    config = ScaleConfig(
        trace=args.trace or args.fleet_metrics,
        fleet_metrics=args.fleet_metrics,
        schedules=schedules,
    )

    chunks: list[str] = []
    all_violations: list = []
    snapshots: dict[str, dict] = {}

    def trace_out_path(name: str) -> str:
        if len(schedules) == 1:
            return args.trace_out
        root, dot, ext = args.trace_out.rpartition(".")
        return f"{root}.{name}.{ext}" if dot else f"{args.trace_out}.{name}"

    def on_fleet(name: str, collector, violations: list) -> None:
        all_violations.extend(violations)
        snapshot = collector.snapshot()
        if args.fleet_metrics:
            snapshot["registry"] = collector.registry.snapshot()
        snapshots[name] = snapshot
        chunks.append(render_fleet_dashboard(snapshot, title=name))
        if violations:
            listing = "\n".join(str(violation) for violation in violations)
            chunks.append(
                f"trace-check [{name}]: {len(violations)} violation(s)\n{listing}\n"
            )
        else:
            chunks.append(
                f"trace-check [{name}]: OK "
                f"({snapshot['fleet']['records']} records, "
                f"{snapshot['fleet']['ledger_entries']} ledger entries, "
                f"{snapshot['fleet']['dropped_events']} dropped)\n"
            )
        if args.trace_out:
            path = trace_out_path(name)
            with open(path, "w") as handle:
                json.dump(collector.chrome_trace(), handle)
            chunks.append(f"chrome trace written to {path}\n")

    data = run_scale_sweep(config, on_fleet=on_fleet)
    summary = ResultTable(
        title="EXT5 fleet telemetry sweep",
        headers=["schedule", "queries", "qps", "records", "dropped",
                 "violations", "collect_s", "total_iv"],
    )
    for name, metrics in data["schedules"].items():
        fleet = metrics.get("fleet", {})
        summary.add(
            name,
            metrics["queries"],
            metrics["queries_per_sec"],
            fleet.get("records", 0),
            fleet.get("dropped_events", 0),
            fleet.get("violations", 0),
            fleet.get("collect_wall_seconds", 0.0),
            metrics["total_iv"]["online"],
        )
    body = render(summary, args.fmt) + "\n\n" + "\n".join(chunks)

    if args.html:
        reports = "\n".join(
            fleet_report_html(snapshot, title=f"EXT5 fleet: {name}")
            for name, snapshot in snapshots.items()
        )
        with open(args.html, "w") as handle:
            handle.write(reports + "\n")
        body += f"html report written to {args.html}\n"

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(body)
    else:
        try:
            print(body, end="")
        except BrokenPipeError:
            pass
    return 1 if all_violations else 0


def _run_bench_gate(args: argparse.Namespace) -> int:
    """``bench-gate``: re-run benchmark snapshots and fail on regressions."""
    from repro.experiments.bench_gate import render_gate, run_gate

    results = run_gate(wall_tolerance=args.wall_tolerance)
    report = render_gate(results)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 0 if all(result.passed for result in results) else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Information Value-driven Near "
            "Real-Time Decision Support Systems' (ICDCS 2009)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "check", "trace", "bench-gate", "serve", "serve-bench",
           "serve-smoke", "resume-verify"],
        help=(
            "which figure to regenerate ('check' audits every claimed "
            "shape; 'trace' runs an observability scenario; 'bench-gate' "
            "re-runs the committed benchmark snapshots and fails on "
            "regressions; 'serve' starts the wall-clock HTTP query "
            "service; 'serve-bench'/'serve-smoke' drive it with load; "
            "'resume-verify' audits a --journal for exact resumability)"
        ),
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        help=(
            "trace scenario ('trace' subcommand only): "
            "fig4 | stream | faults | stream-online"
        ),
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "csv", "json"),
        default="text", help="output format (default: text)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write results to this file instead of stdout",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="append an ASCII bar chart (fig5, fig8, load; text format only)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome", "timeline", "spans"),
        default="timeline",
        help=(
            "trace output ('trace' only): lossless JSONL, chrome://tracing "
            "JSON, a readable timeline, or per-query span trees"
        ),
    )
    parser.add_argument(
        "--check", action="store_true",
        help="('trace' only) run the TraceChecker; non-zero exit on violations",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="('trace' only) append the metrics registry snapshot (JSON)",
    )
    parser.add_argument(
        "--live-metrics", action="store_true",
        help=(
            "('stream-mqo' only) run the online scenario with the live "
            "telemetry stack (streaming aggregators + SLO monitor) and "
            "render the terminal dashboard"
        ),
    )
    parser.add_argument(
        "--slo", default=None, metavar="FILE",
        help=(
            "(with --live-metrics) JSON file of SLO rules; defaults to "
            "the stock rule set"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "(with --live-metrics) collect the wall-clock profiler and "
            "append the per-phase attribution table"
        ),
    )
    parser.add_argument(
        "--html", default=None, metavar="FILE",
        help="(with --live-metrics) also write a self-contained HTML report",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "('scale' only) run the sharded sweep with per-shard tracing, "
            "merge the shard traces through the fleet collector and run the "
            "cross-shard trace checker; non-zero exit on violations"
        ),
    )
    parser.add_argument(
        "--fleet-metrics", action="store_true",
        help=(
            "('scale' only) like --trace, plus the fleet registry (the "
            "live registry folded over the merged trace) on the dashboard"
        ),
    )
    parser.add_argument(
        "--schedule", default=None, metavar="NAME",
        help="('scale' with --trace/--fleet-metrics) run only this schedule",
    )
    parser.add_argument(
        "--queries", type=int, default=None, metavar="N",
        help=(
            "('scale' with --trace/--fleet-metrics) override the stream "
            "length of every selected schedule"
        ),
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=(
            "('scale' with --trace/--fleet-metrics) write the merged "
            "chrome://tracing JSON here (multiple schedules add a "
            "'.<schedule>' suffix before the extension)"
        ),
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=None,
        help=(
            "('bench-gate' only) allowed wall-clock slowdown multiple; "
            "defaults to $BENCH_GATE_TOLERANCE or 3.0"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="('serve' only) interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8763,
        help="('serve' only) port to bind; 0 picks one (default: 8763)",
    )
    parser.add_argument(
        "--seconds-per-minute", type=float, default=1.0,
        help=(
            "('serve' only) wall seconds per stream minute; 60 is honest "
            "real time, smaller compresses the stream (default: 1.0)"
        ),
    )
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help=(
            "('serve'/'serve-smoke'/'resume-verify') durable journal "
            "path: 'serve' appends every scheduling record to it, "
            "'resume-verify' audits it"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "('serve' only) recover state from --journal before serving; "
            "the journal header's config overrides the command line"
        ),
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=0,
        help=(
            "('serve' only, with --journal) checkpoint every N pops "
            "(0 = only explicit POST /checkpoint; default: 0)"
        ),
    )
    parser.add_argument(
        "--kill-resume", action="store_true",
        help=(
            "('serve-smoke' only) run the crash/resume smoke: kill a "
            "journaled live service mid-flight and resume it"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    args = parser.parse_args(argv)

    if args.experiment == "trace":
        return _run_trace(parser, args)
    if args.scenario is not None:
        parser.error("a scenario argument is only valid with 'trace'")
    if args.experiment == "bench-gate":
        return _run_bench_gate(args)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    if args.experiment == "resume-verify":
        if not args.journal:
            parser.error("resume-verify requires --journal")
        return _run_resume_verify(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "serve-bench":
        return _run_serve_bench(args)
    if args.experiment == "serve-smoke":
        import asyncio

        from repro.serve.bench import serve_kill_resume_smoke, serve_smoke

        if args.kill_resume:
            return asyncio.run(serve_kill_resume_smoke(args.journal))
        return asyncio.run(serve_smoke())
    fleet_mode = args.trace or args.fleet_metrics
    if fleet_mode or args.schedule or args.queries or args.trace_out:
        if not fleet_mode:
            parser.error(
                "--schedule/--queries/--trace-out require --trace or "
                "--fleet-metrics"
            )
        if args.experiment != "scale":
            parser.error("--trace/--fleet-metrics are only valid with 'scale'")
        return _run_scale_fleet(parser, args)
    if args.live_metrics:
        if args.experiment != "stream-mqo":
            parser.error("--live-metrics is only valid with 'stream-mqo'")
        return _run_live_stream(parser, args)
    if args.slo or args.profile or args.html:
        parser.error("--slo/--profile/--html require --live-metrics")

    if args.experiment == "check":
        from repro.experiments.claims import check_all, render_report

        outcomes = check_all()
        report = render_report(outcomes)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(report + "\n")
        else:
            print(report)
        return 0 if all(outcome.passed for outcome in outcomes) else 1

    from repro.reporting.charts import grouped_bar_chart
    from repro.reporting.export import render

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    chunks: list[str] = []
    for name in names:
        started = time.perf_counter()
        tables = EXPERIMENTS[name]()
        body = "\n\n".join(render(table, args.fmt) for table in tables)
        if args.chart and args.fmt == "text" and name in CHART_SPECS:
            group_by, series, value = CHART_SPECS[name]
            charts = "\n\n".join(
                grouped_bar_chart(table, group_by, series, value)
                for table in tables
                if {*group_by, series, value} <= set(table.headers)
            )
            if charts:
                body = f"{body}\n\n{charts}"
        elapsed = time.perf_counter() - started
        if args.fmt == "text":
            chunks.append(f"== {name} ==\n{body}\n[{name} done in {elapsed:.1f}s]\n")
        else:
            chunks.append(body)
    output = "\n".join(chunks)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
    else:
        try:
            print(output)
        except BrokenPipeError:  # e.g. piped into `head`
            return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
