"""Load generator and smoke test for the wall-clock serving runtime.

``serve_bench`` drives a live :class:`~repro.serve.httpd.HTTPServer`
through two phases over real sockets:

* **baseline** — one query per stream minute (the paper's sustained
  near-real-time submission rate);
* **overload** — one query per *half* stream minute: a 2× burst that
  forces the rolling-window scheduler to shed/defer under its
  ``max_pending`` bound and IV floor.

Stream minutes are compressed onto wall time through
``seconds_per_minute`` so the whole bench takes seconds, not the paper's
half hour — the *scheduling decisions* are identical either way (that is
the Clock seam's contract, and the bench re-proves it by replaying its
own arrival trace through a SimClock before reporting).

Per-request wall latency is measured around the blocking ``POST /submit``
(submission → completed result on the wire), aggregated into
p50/p95/p99.  The resulting dict is what ``benchmarks/serve_snapshot.py``
commits as ``BENCH_serve.json`` and the bench gate tolerances police
(``*_ms`` keys are in the 3× wall family; throughput/shed shape is
reported but not gated — it is asserted structurally here instead).

``serve_smoke`` is the tiny correctness pass behind ``make serve-smoke``:
a handful of queries over HTTP exercising every route, then hard asserts
— checker-clean trace, zero violations, replay-equal decision log.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from repro.errors import SimulationError
from repro.serve.httpd import HTTPServer, http_request
from repro.serve.service import QueryService, ServeConfig, journal_serve_config

__all__ = [
    "ServeBenchConfig",
    "serve_bench",
    "serve_smoke",
    "serve_kill_resume_smoke",
    "percentile",
]


@dataclass(frozen=True)
class ServeBenchConfig:
    """Shape of one ``serve-bench`` run."""

    #: Wall seconds per stream minute (0.02 → a stream minute every 20 ms).
    seconds_per_minute: float = 0.02
    #: Queries in the sustained-rate phase.
    baseline_queries: int = 12
    #: Queries in the burst phase.
    overload_queries: int = 12
    #: Baseline inter-arrival gap (stream minutes).
    baseline_interarrival: float = 1.0
    #: Overload inter-arrival gap — half the baseline = 2× the rate.
    overload_interarrival: float = 0.5
    #: Service knobs (kept small so the GA fits inside the compressed band).
    num_templates: int = 8
    ga_generations: int = 10
    seed: int = 11
    window: float = 2.0
    max_pending: int = 6
    #: High enough that low-value templates shed at admission (the floor
    #: is an *ideal-conditions* bound, so shedding is load-independent;
    #: the load response under overload is deferral against max_pending).
    iv_floor: float = 0.05


def percentile(values: list[float], fraction: float) -> float:
    """Sorted ``values`` at index ``round(fraction * (n - 1))``, ties to even."""
    if not values:
        raise SimulationError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


async def _drive_phase(
    host: str,
    port: int,
    count: int,
    interarrival_minutes: float,
    seconds_per_minute: float,
    num_templates: int,
    template_offset: int = 0,
) -> dict:
    """Submit ``count`` queries at a fixed rate; gather latency + outcomes.

    Submissions are staggered on the *wall* schedule the stream rate
    implies; each request blocks until its query completes (or is shed),
    so the measured latency is the end-to-end number a live dashboard
    client would see.
    """

    async def one(index: int) -> tuple[dict, float]:
        await asyncio.sleep(index * interarrival_minutes * seconds_per_minute)
        started = perf_counter()
        status, body = await http_request(
            host, port, "POST", "/submit",
            {"template": (template_offset + index) % num_templates},
        )
        elapsed = perf_counter() - started
        if status != 200:
            raise SimulationError(f"submit failed: HTTP {status} {body!r}")
        return body, elapsed

    phase_started = perf_counter()
    outcomes = await asyncio.gather(*(one(i) for i in range(count)))
    phase_seconds = perf_counter() - phase_started

    completed = [body for body, _ in outcomes if body["outcome"] == "completed"]
    shed = [body for body, _ in outcomes if body["outcome"] == "shed"]
    latencies_ms = [
        elapsed * 1e3 for body, elapsed in outcomes
        if body["outcome"] == "completed"
    ]
    return {
        "queries": count,
        "interarrival_minutes": interarrival_minutes,
        "completed": len(completed),
        "shed": len(shed),
        "shed_rate": round(len(shed) / count, 4),
        "qps": round(count / phase_seconds, 2),
        "iv_total": round(sum(body["iv"] for body in completed), 6),
        "latency_p50_ms": round(percentile(latencies_ms, 0.50), 2),
        "latency_p95_ms": round(percentile(latencies_ms, 0.95), 2),
        "latency_p99_ms": round(percentile(latencies_ms, 0.99), 2),
    }


async def serve_bench(config: ServeBenchConfig | None = None) -> dict:
    """Run the two-phase load bench; returns the ``BENCH_serve`` dict."""
    config = config or ServeBenchConfig()
    service = QueryService(ServeConfig(
        seconds_per_minute=config.seconds_per_minute,
        window=config.window,
        max_pending=config.max_pending,
        iv_floor=config.iv_floor,
        num_templates=config.num_templates,
        seed=config.seed,
        ga_generations=config.ga_generations,
    ))
    server = HTTPServer(service, port=0)
    await server.start()
    host, port = server.address
    try:
        baseline = await _drive_phase(
            host, port, config.baseline_queries,
            config.baseline_interarrival, config.seconds_per_minute,
            config.num_templates,
        )
        overload = await _drive_phase(
            host, port, config.overload_queries,
            config.overload_interarrival, config.seconds_per_minute,
            config.num_templates, template_offset=config.baseline_queries,
        )
    finally:
        await server.stop()

    violations = service.check_trace()
    replayed = service.replay()
    replay_equal = replayed.decisions == service.session.decisions
    stats = service.session.stats
    return {
        "config": asdict(config),
        "baseline": baseline,
        "overload": overload,
        "admission": {
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "shed": stats.shed,
            "deferred": stats.deferred,
            "requeued": stats.requeued,
            "dispatched": stats.dispatched,
            "reopt_seconds": round(stats.reopt_seconds, 4),
            "windows": stats.windows,
        },
        "trace": {
            "records": len(service.tracer.records),
            "violations": len(violations),
            "decisions": len(service.session.decisions),
            "replay_equal": replay_equal,
        },
    }


async def serve_smoke(queries: int = 5) -> int:
    """A tiny end-to-end pass over every HTTP route; returns an exit code.

    Asserts the three serving contracts — all routes answer, the trace is
    checker-clean, and the SimClock replay reproduces the live decision
    log exactly.  Prints one line per check so ``make serve-smoke``
    output reads as a checklist.
    """
    service = QueryService(ServeConfig(
        seconds_per_minute=0.01, num_templates=6, ga_generations=5, seed=11,
    ))
    server = HTTPServer(service, port=0)
    await server.start()
    host, port = server.address
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f" — {detail}" if detail else ""))
        if not ok:
            failures += 1

    try:
        status, body = await http_request(host, port, "GET", "/healthz")
        check("GET /healthz", status == 200 and body.get("ok") is True)

        # One fire-and-forget submission, then fetch its result by qid.
        status, body = await http_request(
            host, port, "POST", "/submit", {"template": 0, "wait": False}
        )
        check("POST /submit wait=false", status == 200 and "qid" in body, str(body))
        qid = body.get("qid", 0)
        status, body = await http_request(host, port, "GET", f"/result/{qid}")
        check(
            "GET /result/<qid>",
            status == 200 and body.get("outcome") in ("completed", "shed"),
            str(body.get("outcome")),
        )

        # Blocking submissions, concurrently.
        results = await asyncio.gather(*(
            http_request(host, port, "POST", "/submit", {"template": i % 6})
            for i in range(1, queries)
        ))
        check(
            f"POST /submit x{queries - 1} (blocking)",
            all(status == 200 and "outcome" in body for status, body in results),
        )

        status, metrics = await http_request(host, port, "GET", "/metrics")
        check("GET /metrics", status == 200 and "counters" in metrics)
        status, page = await http_request(host, port, "GET", "/status")
        check("GET /status", status == 200 and "<html" in str(page))
        status, _ = await http_request(host, port, "GET", "/nope")
        check("GET /nope → 404", status == 404)

        status, body = await http_request(host, port, "POST", "/shutdown")
        check("POST /shutdown", status == 200 and body.get("draining") is True)
        await server.serve_until_shutdown()
    except Exception as error:
        check("HTTP session", False, repr(error))
        await server.stop()

    violations = service.check_trace()
    check("trace checker-clean", not violations,
          "; ".join(str(v) for v in violations[:3]))
    replayed = service.replay()
    check(
        "SimClock replay reproduces decisions",
        replayed.decisions == service.session.decisions,
        f"{len(service.session.decisions)} decisions",
    )
    print(f"serve-smoke: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


async def serve_kill_resume_smoke(journal: str | None = None) -> int:
    """Kill a journaled live service mid-flight, resume it, assert contracts.

    Phase 1 starts a journaled service over real sockets, submits a few
    queries, checkpoints over HTTP, submits one more — then **hard-kills**
    the scheduling loop (task cancellation: no drain, no close, exactly a
    ``kill -9`` as far as the journal is concerned).  Phase 2 builds a
    fresh service with ``resume=True`` from the same journal, serves more
    traffic, drains, and asserts the durability contracts: phase-1
    results survive, the merged trace is checker-clean (including the
    ``durable.resume`` rules), and a SimClock replay of the *merged*
    arrival log reproduces the merged decision log exactly.  Returns an
    exit code for ``make serve-smoke-resume``.
    """
    perf_started = perf_counter()
    if journal is None:
        journal = str(Path(tempfile.mkdtemp(prefix="repro-serve-")) / "serve.journal")
    config = ServeConfig(
        seconds_per_minute=0.01, num_templates=6, ga_generations=5, seed=11,
    )
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f" — {detail}" if detail else ""))
        if not ok:
            failures += 1

    # -- phase 1: journaled service, killed without ceremony ---------------
    service = QueryService(config, journal=journal)
    server = HTTPServer(service, port=0)
    await server.start()
    host, port = server.address
    survivors: dict[int, dict] = {}
    try:
        results = await asyncio.gather(*(
            http_request(host, port, "POST", "/submit", {"template": i % 6})
            for i in range(3)
        ))
        for status, body in results:
            if status == 200 and body.get("outcome") == "completed":
                survivors[body["qid"]] = body
        check("phase1 submits answered", all(s == 200 for s, _ in results))
        status, body = await http_request(host, port, "POST", "/checkpoint")
        check("POST /checkpoint", status == 200 and body.get("ok") is True,
              f"pops={body.get('pops')}")
        status, body = await http_request(
            host, port, "POST", "/submit", {"template": 3, "wait": False}
        )
        check("phase1 in-flight submit", status == 200 and "qid" in body)
    finally:
        # The kill: cancel the scheduling loop dead, close only the socket.
        assert server._runner is not None
        server._runner.cancel()
        try:
            await server._runner
        except asyncio.CancelledError:
            pass
        if server._server is not None:
            server._server.close()
            await server._server.wait_closed()
    killed_pops = service.pops

    # -- phase 2: resume from the journal ----------------------------------
    resumed = QueryService(
        journal_serve_config(journal), journal=journal, resume=True,
    )
    check(
        "resume recovered the kill point",
        resumed.resumed_at_pops == killed_pops,
        f"pops={resumed.resumed_at_pops}",
    )
    server2 = HTTPServer(resumed, port=0)
    await server2.start()
    host, port = server2.address
    try:
        status, body = await http_request(
            host, port, "POST", "/submit", {"template": 4}
        )
        check("phase2 submit after resume", status == 200 and "outcome" in body)
        status, body = await http_request(host, port, "POST", "/shutdown")
        check("POST /shutdown", status == 200)
        await server2.serve_until_shutdown()
    except Exception as error:  # pragma: no cover - smoke diagnostics
        check("phase2 HTTP session", False, repr(error))
        await server2.stop()

    for qid, payload in survivors.items():
        check(
            f"phase1 result qid={qid} survived the kill",
            resumed.results.get(qid) == payload,
        )
    violations = resumed.check_trace()
    check("merged trace checker-clean", not violations,
          "; ".join(str(v) for v in violations[:3]))
    replayed = resumed.replay()
    check(
        "SimClock replay reproduces merged decisions",
        replayed.decisions == resumed.session.decisions,
        f"{len(resumed.session.decisions)} decisions",
    )
    check(
        "every resumed ledger entry recomputes bit-equal",
        all(e.recompute_iv() == e.reported_iv for e in resumed.ledgers),
        f"{len(resumed.ledgers)} entries",
    )
    elapsed = perf_counter() - perf_started
    print(
        f"serve-kill-resume: {'PASS' if failures == 0 else f'{failures} FAILURES'}"
        f" ({elapsed:.1f}s, journal={journal})"
    )
    return 0 if failures == 0 else 1
