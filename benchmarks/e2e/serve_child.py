"""The system under test for the ``serve`` workload (spawned by ``run.py``).

Usage: ``serve_child.py '<json job>'``.  Starts a journaled
``QueryService`` behind ``HTTPServer(port=0)``, prints ``READY <port>``
once it is listening (the parent times spawn -> READY as ``setup_s``),
serves until ``POST /shutdown``, then runs the post-drain correctness
checks — outside anything the generator timed — and prints one JSON
document as its last line.

Job keys: ``journal`` (path inside the checkout), ``traced`` (install
the layer wrappers), ``setup_only`` (skip the post-drain checks).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.durable.journal import scan_journal  # noqa: E402
from repro.serve.httpd import HTTPServer  # noqa: E402
from repro.serve.service import QueryService, ServeConfig  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


async def _serve(job: dict) -> tuple[QueryService, float]:
    """Serve until ``/shutdown``; the service and its CPU seconds since
    it started listening."""
    service = QueryService(
        ServeConfig(**workloads.SERVE_CONFIG), journal=job["journal"]
    )
    server = HTTPServer(service, port=0)
    await server.start()
    _host, port = server.address
    cpu_ready = time.process_time()
    print(f"READY {port}", flush=True)
    await server.serve_until_shutdown()
    return service, time.process_time() - cpu_ready


def _checks(service: QueryService, journal: str) -> dict:
    _records, valid_bytes, tail_error = scan_journal(journal)
    return {
        "trace_checker_clean": not service.check_trace(),
        "replay_decisions_equal":
            service.replay().decisions == service.session.decisions,
        "ledger_iv_exact": all(
            entry.recompute_iv() == entry.reported_iv
            for entry in service.ledgers
        ),
        "journal_clean":
            tail_error is None and valid_bytes == os.path.getsize(journal),
    }


def _online_counters(service: QueryService) -> dict:
    stats = service.session.stats
    reopts = [
        window.reopt_seconds
        for window in service.session.decision.windows
        if window.ga_runs > 0
    ]
    return {
        "windows": stats.windows,
        "ga_runs": stats.ga_runs,
        "deferred": stats.deferred,
        "shed": stats.shed,
        "reopt_p50_ms":
            measure.percentile(reopts, 0.50) * 1000.0 if reopts else 0.0,
        "reopt_p99_ms":
            measure.percentile(reopts, 0.99) * 1000.0 if reopts else 0.0,
    }


def _median_ms(samples: list[float]) -> float:
    return measure.percentile(samples, 0.5) * 1000.0 if samples else 0.0


def _layer_output(recorder, boundaries, service, journal: str) -> dict:
    layers.add_evaluator_stats(
        recorder, service.session.decision.evaluator_stats
    )
    submits = len(service.arrival_log)
    # The generator fetches results only after its last submit returned,
    # so the first `submits` requests handled are exactly the submits.
    requests = recorder.durations.get("serve.request", [])[:submits]
    journal_bytes = os.path.getsize(journal)
    return {
        **layers.layer_metrics(recorder, boundaries),
        **layers.counter_metrics(recorder),
        "serve.request_p50_ms": _median_ms(requests),
        "serve.requests": len(requests),
        "serve.submit_to_handle_p50_ms":
            _median_ms(recorder.submit_to_handle),
        "serve.handle_p50_ms": _median_ms(recorder.arrival_handle),
        "durable.journal_bytes": journal_bytes,
        "durable.bytes_per_query": journal_bytes / submits if submits else 0.0,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    recorder = None
    boundaries: list[dict] = []
    if job.get("traced"):
        recorder = layers.SpanRecorder()
        boundaries = layers.install(recorder, serve=True)
    service, cpu_seconds = asyncio.run(_serve(job))
    if job.get("setup_only"):
        return 0
    output = {
        # Both read before the checks below, which replay the whole run.
        "cpu_s": cpu_seconds,
        "vm_hwm_kb": measure.vm_hwm_kb(),
        "submitted": len(service.arrival_log),
        "completed": len(service.ledgers),
        "online": _online_counters(service),
    }
    if recorder is not None:
        # Before the checks: replay() drives the same wrapped layers.
        output["layers"] = _layer_output(
            recorder, boundaries, service, job["journal"]
        )
        output["boundaries"] = boundaries
    output["checks"] = _checks(service, job["journal"])
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
