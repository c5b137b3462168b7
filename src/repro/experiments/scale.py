"""EXT5 — sharded scale sweep: six-figure query streams (extension).

The paper evaluates streams of tens of queries; this extension measures
how far the online scheduler carries to 10^5–10^6-query streams by
exploiting the paper's own workload-formation argument (Section 3.2,
step 1) as a *sharding* rule: queries in different conflict groups have
non-overlapping execution ranges, so every server a group's slowest
candidate could occupy is free again before the next group's first query
arrives — groups are independently plannable and can run in different
worker processes without changing any single group's decisions.

The driver runs three arrival schedules per sweep:

* ``steady`` — a provisioned Poisson stream (service keeps up; the queue
  never builds), the throughput headline;
* ``burst`` — clumped arrivals (whole bursts conflict, forming large
  groups) optimized with a bigger GA, so GA scoring dominates;
* ``pressure`` — sustained overload against a small pending bound,
  exercising the defer/requeue admission path end to end.

Each schedule's pipeline: :func:`run_schedule` builds the arrival stream
once, derives every query's execution range by *selecting* its candidates
through one :class:`~repro.mqo.evaluator.WorkloadEvaluator` that retains
nothing (the range prelude, reported as ``ranges_per_sec``), maintains
groups with :class:`~repro.mqo.conflict.IncrementalConflictGroups`,
bin-packs whole groups onto shards (:func:`shard_assignments`), then runs
one :class:`~repro.mqo.online.OnlineMQOScheduler` per shard — serially or
in spawned worker processes (``ScaleConfig.executor``).  A shard receives
its member queries, their arrivals and the selection the prelude made for
each in its payload (the same payload either way) and rebuilds only
catalog and cost model from the (picklable) config; its evaluator builds
each member's candidate records from the shipped selection at admission,
so a query is lowered once per run — selected in the prelude, compiled in
its shard — and compiled costs are paid once per shape per process
(``work`` in the metrics counts both: ``lowerings == queries``).  What
only the prelude needed is released before the first shard runs.
Per-shard memory is the worker's own ``VmHWM`` from
``/proc/self/status`` — ``ru_maxrss`` survives fork+exec, so even a
*spawned* worker would otherwise report the parent's peak; with
``executor="serial"`` the shards share the parent's process and the
figure is that process's peak.

A sharded run is **not** claimed bit-equal to an unsharded one — each
shard re-optimizes on its own window clock — so the sweep reports
throughput, latency and conservation rather than IV equivalence: every
query is dispatched or shed exactly once across shards, and each shard
is individually deterministic (seeded), making the recorded totals
reproducible run to run.  Re-opt latency percentiles are taken over
optimization passes that actually ran the GA; passes over singleton-only
pending sets are near-free and would drown the signal.

``benchmarks/scale_snapshot.py`` commits this sweep as
``BENCH_scale.json``, gated by ``repro bench-gate``: ``*_per_sec``
throughput leaves may only ratchet up (within the wall tolerance),
``*_ms``/``wall_seconds`` leaves may not blow past it, and
``total_iv.online`` is held to the deterministic-IV family.
"""

from __future__ import annotations

import math
import sys
import time
import typing
from dataclasses import dataclass, replace

from repro.core.value import DiscountRates
from repro.errors import ConfigError
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.conflict import ExecutionRange, IncrementalConflictGroups
from repro.mqo.evaluator import WorkloadEvaluator
from repro.mqo.ga import GAConfig
from repro.mqo.online import (
    LifecycleTrace,
    OnlineConfig,
    OnlineMQOScheduler,
    drive,
)
from repro.reporting.tables import ResultTable
from repro.workload.arrival import poisson_arrivals
from repro.workload.query import DSSQuery, Workload

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.obs.fleet import FleetCollector

__all__ = [
    "ScheduleSpec",
    "ScaleConfig",
    "DEFAULT_SCHEDULES",
    "MILLION_SCHEDULES",
    "build_catalog",
    "build_stream",
    "shard_assignments",
    "run_schedule",
    "run_scale_sweep",
    "run_scale",
]

_EXECUTORS = ("serial", "process")
_ARRIVALS = ("poisson", "burst")


@dataclass(frozen=True)
class ScheduleSpec:
    """One arrival schedule of the sweep (shape + scheduler knobs)."""

    name: str
    queries: int
    #: "poisson" (independent interarrivals) or "burst" (clumped).
    arrival: str = "poisson"
    #: Mean interarrival (poisson) or gap between bursts (burst), minutes.
    interarrival: float = 1.0
    #: Arrivals per burst instant (``arrival="burst"`` only).
    burst_size: int = 1
    max_pending: int = 32
    iv_floor: float = 0.0
    population_size: int = 4
    generations: int = 2
    #: Accepted and ignored: the batch evaluator it selected is gone
    #: (every schedule scores through the one scalar path), but the
    #: frozen ``benchmarks/e2e/workloads.py`` still passes it.  Remove
    #: once a benchmark change may edit that file.
    vectorized: bool = False

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ConfigError(f"queries must be >= 1, got {self.queries}")
        if self.arrival not in _ARRIVALS:
            raise ConfigError(
                f"arrival must be one of {_ARRIVALS}, got {self.arrival!r}"
            )
        if self.interarrival <= 0:
            raise ConfigError(
                f"interarrival must be > 0, got {self.interarrival}"
            )
        if self.burst_size < 1:
            raise ConfigError(
                f"burst_size must be >= 1, got {self.burst_size}"
            )


#: The committed-benchmark sweep: a 10^5-query steady stream plus smaller
#: burst and pressure schedules (sizes calibrated so `make bench-scale`
#: and the bench-gate re-run stay within a CI-friendly budget).
DEFAULT_SCHEDULES = (
    ScheduleSpec("steady", queries=100_000, arrival="poisson",
                 interarrival=1.0),
    ScheduleSpec("burst", queries=4_096, arrival="burst", interarrival=25.0,
                 burst_size=16, max_pending=64,
                 population_size=24, generations=8),
    ScheduleSpec("pressure", queries=4_000, arrival="poisson",
                 interarrival=0.45, max_pending=16),
)

#: The full-scale variant: the steady stream at 10^6 queries (several
#: minutes of wall clock; run via ``ScaleConfig(schedules=...)``, never
#: from the committed benchmark).
MILLION_SCHEDULES = (
    replace(DEFAULT_SCHEDULES[0], queries=1_000_000),
) + DEFAULT_SCHEDULES[1:]


@dataclass(frozen=True)
class ScaleConfig:
    """Shared infrastructure + sharding knobs of one sweep."""

    tables: int = 6
    sites: int = 3
    row_count: int = 2_000
    templates: int = 12
    base_work: float = 400.0
    work_step: float = 80.0
    max_candidates: int = 4
    window: float = 8.0
    seed: int = 17
    arrival_seed: int = 7
    shards: int = 2
    #: "serial" runs shards in-process; "process" spawns one worker per
    #: shard (fresh interpreters; per-shard peak RSS is each worker's own).
    executor: str = "process"
    schedules: tuple[ScheduleSpec, ...] = DEFAULT_SCHEDULES
    #: Trace each shard, return its records in the shard's result and
    #: merge them at join (the ``repro.obs.fleet`` path).  Off by default:
    #: every committed number is produced telemetry-free.
    trace: bool = False
    #: Accepted as implying ``trace``: shards ship records only, and the
    #: fleet registry is folded from the merged trace in the parent when a
    #: caller reads ``FleetCollector.registry`` (the CLI's
    #: ``--fleet-metrics`` dashboard does).  ``benchmarks/e2e/sim_child.py``
    #: still passes it.
    fleet_metrics: bool = False
    #: Accepted and ignored: shards return their records in their
    #: results and write no file.  ``benchmarks/e2e/sim_child.py`` still
    #: passes it.
    spool_dir: str | None = None

    def __post_init__(self) -> None:
        if self.tables < 1:
            raise ConfigError(f"tables must be >= 1, got {self.tables}")
        if not 1 <= self.sites <= self.tables:
            raise ConfigError(
                f"sites must be in [1, tables], got {self.sites}"
            )
        if self.templates < 1:
            raise ConfigError(
                f"templates must be >= 1, got {self.templates}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.executor not in _EXECUTORS:
            raise ConfigError(
                f"executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )
        if not self.schedules:
            raise ConfigError("a sweep needs at least one schedule")

    @property
    def telemetry(self) -> bool:
        """Whether shard workers run with the fleet telemetry stack."""
        return self.trace or self.fleet_metrics


def build_catalog(config: ScaleConfig) -> Catalog:
    """The sweep's deterministic federation: staggered sync schedules."""
    catalog = Catalog()
    for index in range(config.tables):
        name = f"t{index}"
        catalog.add_table(
            TableDef(name, site=index % config.sites,
                     row_count=config.row_count)
        )
        catalog.add_replica(
            name,
            FixedSyncSchedule(
                [1.0 + index * 0.5 + k * 6.0 for k in range(10)],
                tail_period=6.0,
            ),
        )
    return catalog


def _infrastructure(config: ScaleConfig):
    catalog = build_catalog(config)
    cost_model = CostModel(catalog, params=CostParameters())
    rates = DiscountRates.symmetric(0.1)
    return catalog, cost_model, rates


def build_stream(config: ScaleConfig, spec: ScheduleSpec) -> Workload:
    """The schedule's full arrival stream (template-cycled queries)."""
    # One tables tuple and one work figure per template, shared by every
    # query stamped from it.
    shapes = [
        (
            tuple(
                f"t{(template + j) % config.tables}"
                for j in range(1 + template % 2)
            ),
            config.base_work + config.work_step * (template % 5),
        )
        for template in range(config.templates)
    ]
    queries = []
    for index in range(spec.queries):
        tables, base_work = shapes[index % config.templates]
        queries.append(DSSQuery(
            query_id=index + 1, name=f"q{index + 1}", tables=tables,
            base_work=base_work,
        ))
    if spec.arrival == "poisson":
        arrivals = poisson_arrivals(
            spec.interarrival, spec.queries, seed=config.arrival_seed
        )
    else:
        # Bursts of `burst_size` arrivals 0.05 min apart, every
        # `interarrival` minutes — whole bursts conflict by construction.
        arrivals = [
            (index // spec.burst_size) * spec.interarrival
            + 0.05 * (index % spec.burst_size)
            for index in range(spec.queries)
        ]
    return Workload.from_queries(queries, arrivals=arrivals)


def shard_assignments(
    groups: list[list[int]], shards: int
) -> list[list[int]]:
    """Deterministic greedy bin-packing of conflict groups onto shards.

    Groups arrive in sweep order; each goes whole onto the currently
    lightest shard (ties to the lowest index), so co-contending queries
    are always planned by the same worker and shard loads stay balanced
    without any randomness.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    loads = [0] * shards
    assigned: list[list[int]] = [[] for _ in range(shards)]
    for group in groups:
        lightest = min(range(shards), key=lambda shard: (loads[shard], shard))
        assigned[lightest].extend(group)
        loads[lightest] += len(group)
    return assigned


def _traced_run(scheduler, workload, selections, shard):
    """:meth:`OnlineMQOScheduler.run` with the telemetry stack attached.

    The same :func:`~repro.mqo.online.drive` over the same pops, so stats,
    dispatch order and total IV are bit-equal to the untraced run; a
    :class:`~repro.mqo.online.LifecycleTrace` observer adds the serving
    tier's per-query lifecycle.  A :class:`~repro.obs.checker.TraceChecker`
    fold audits each record as it is emitted.  Returns ``(decision,
    telemetry)``: the shard's :class:`~repro.obs.fleet.ShardTelemetry`
    holds every record the tracer emitted and the fold's audit.
    """
    from repro.obs.checker import TraceChecker
    from repro.obs.fleet import ShardTelemetry
    from repro.sim.clocks import SimClock
    from repro.sim.trace import Tracer

    clock = SimClock()
    tracer = Tracer(lambda: clock.now)
    checker = TraceChecker().attach(tracer)
    scheduler.tracer = tracer
    session = scheduler.session(workload, clock, selections)
    session.push_arrivals()
    drive(session, clock, [LifecycleTrace(tracer)])
    decision = session.decision
    telemetry = ShardTelemetry(
        shard=shard,
        records=tracer.records,
        summary={
            "total_iv": decision.total_information_value,
            "dropped_events": tracer.dropped,
            "queries": len(workload),
            "dispatched": decision.stats.dispatched,
            "shed": decision.stats.shed,
            "deferred": decision.stats.deferred,
        },
        audit=checker.audit(),
    )
    return decision, telemetry


def _peak_rss_kb() -> int:
    """This process's own peak resident set, in kB.

    ``VmHWM`` is per address space, so a spawned worker reports only what
    it touched itself; ``ru_maxrss`` is carried across fork+exec and would
    report at least the parent's peak.  Off Linux there is no
    ``/proc/self/status`` and ``ru_maxrss`` is the best available.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ``ru_maxrss`` is in kilobytes on Linux but in bytes on macOS.
    return peak // 1024 if sys.platform == "darwin" else peak


def _run_shard(payload) -> dict:
    """One shard's online run (module-level: spawned workers pickle it).

    The payload carries this shard's member queries and arrivals (original
    ids and arrival times, stream order preserved) and the candidate
    selection the range prelude made for each; catalog and cost model
    are rebuilt from the config — cheap, and start-method-agnostic.  With
    ``config.telemetry`` the run goes through :func:`_traced_run` (same
    decisions) and the result's ``"telemetry"`` is the shard's
    :class:`~repro.obs.fleet.ShardTelemetry`; without it the run is
    exactly the untraced scheduler loop and ``"telemetry"`` is ``None``.
    """
    config, spec, workload, selections, shard = payload
    catalog, cost_model, rates = _infrastructure(config)
    scheduler = OnlineMQOScheduler(
        catalog, cost_model, rates,
        ga_config=GAConfig(
            population_size=spec.population_size,
            generations=spec.generations,
        ),
        seed=config.seed,
        max_candidates=config.max_candidates,
        config=OnlineConfig(
            window=config.window,
            max_pending=spec.max_pending,
            iv_floor=spec.iv_floor,
        ),
    )
    telemetry = None
    if config.telemetry:
        decision, telemetry = _traced_run(
            scheduler, workload, selections, shard
        )
    else:
        decision = scheduler.run(workload, selections)
    stats = decision.stats
    return {
        "queries": len(workload),
        "dispatched": stats.dispatched,
        "shed": stats.shed,
        "deferred": stats.deferred,
        "windows": stats.windows,
        "ga_runs": stats.ga_runs,
        "total_iv": decision.total_information_value,
        "reopt_seconds": [
            window.reopt_seconds
            for window in decision.windows
            if window.ga_runs > 0
        ],
        "max_rss_kb": _peak_rss_kb(),
        "work": _work(cost_model, decision.evaluator_stats),
        "telemetry": telemetry,
    }


def _work(cost_model: CostModel, stats) -> dict:
    """Machine-independent compile work of one cost model + evaluator."""
    return {
        "cost_compiles": cost_model.compiles,
        "shapes": stats.shapes,
        "lowerings": stats.lowerings,
    }


def _percentile_ms(reopts: list[float], fraction: float) -> float:
    """Nearest-rank percentile of sorted re-opt times, in milliseconds."""
    if not reopts:
        return 0.0
    rank = max(1, math.ceil(fraction * len(reopts)))
    return reopts[rank - 1] * 1000.0


def _form_groups(
    config: ScaleConfig, stream: Workload
) -> tuple[list[list[int]], dict[int, tuple], dict, float]:
    """The range prelude: ``(groups, selections, work, wall seconds)``.

    Each query is selected once, here — its range is all group formation
    needs — and the selection travels to the shard that will own it, which
    builds the candidate records from it.  The evaluator and the group
    tracker do not outlive this call.
    """
    catalog, cost_model, rates = _infrastructure(config)
    started = time.perf_counter()
    evaluator = WorkloadEvaluator(
        catalog, cost_model, rates, stream,
        max_candidates=config.max_candidates,
    )
    tracker = IncrementalConflictGroups()
    selections: dict[int, tuple] = {}
    for query in stream.queries:
        start, end = evaluator.range_of(query.query_id, selections)
        tracker.add(ExecutionRange(query.query_id, start, end))
    groups = tracker.groups()
    wall = time.perf_counter() - started
    return groups, selections, _work(cost_model, evaluator.stats), wall


def _shard_payloads(
    config: ScaleConfig,
    spec: ScheduleSpec,
    stream: Workload,
    groups: list[list[int]],
    selections: dict[int, tuple],
) -> list[tuple]:
    """One :func:`_run_shard` payload per non-empty shard.

    Moves each selection out of ``selections`` into its shard's payload.
    """
    shard_of = {
        qid: shard
        for shard, shard_ids in enumerate(
            shard_assignments(groups, config.shards)
        )
        for qid in shard_ids
    }
    members: list[list[DSSQuery]] = [[] for _ in range(config.shards)]
    for query in stream.queries:  # stream order within each shard
        members[shard_of[query.query_id]].append(query)
    payloads = []
    for shard, queries in enumerate(filter(None, members)):
        workload = Workload(
            queries=queries,
            arrivals={
                query.query_id: stream.arrival_of(query.query_id)
                for query in queries
            },
        )
        shipped = {
            query.query_id: selections.pop(query.query_id)
            for query in queries
        }
        payloads.append((config, spec, workload, shipped, shard))
    return payloads


def run_schedule(
    config: ScaleConfig,
    spec: ScheduleSpec,
    on_fleet: "Callable[[str, FleetCollector, list], None] | None" = None,
) -> dict:
    """One schedule end to end: group, shard, run, aggregate.

    With telemetry enabled (``config.trace`` / ``config.fleet_metrics``)
    each shard returns its trace and the audit its checker fold made of
    it; they are joined into a :class:`~repro.obs.fleet.FleetCollector`,
    audited by the cross-shard checker rules, and summarized under the
    ``"fleet"`` metrics key.
    A worker that dies makes the pool raise before any trace is read, so
    the collector only ever sees shards that finished.  Pass ``on_fleet``
    to receive ``(schedule_name, collector, violations)`` (the CLI renders
    dashboards and chrome traces from it).
    """
    stream = build_stream(config, spec)
    groups, selections, prelude_work, formation_wall = _form_groups(
        config, stream
    )
    group_formation = {
        "wall_seconds": round(formation_wall, 3),
        "ranges_per_sec": round(spec.queries / formation_wall, 1),
        "groups": len(groups),
        "largest_group": max(len(group) for group in groups),
    }

    payloads = _shard_payloads(config, spec, stream, groups, selections)
    # The shards own every query from here on.
    del stream, groups, selections
    run_started = time.perf_counter()
    if config.executor == "process":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=len(payloads), mp_context=context
        ) as pool:
            shard_results = list(pool.map(_run_shard, payloads))
    else:
        # In-process shards share this address space: each payload is
        # let go before the next shard runs.
        shard_results = []
        while payloads:
            shard_results.append(_run_shard(payloads.pop(0)))
    run_wall = time.perf_counter() - run_started

    reopts = sorted(
        value for result in shard_results for value in result["reopt_seconds"]
    )
    dispatched = sum(result["dispatched"] for result in shard_results)
    total_wall = formation_wall + run_wall
    rss_kbs = [result["max_rss_kb"] for result in shard_results]
    # Compile work of the range prelude and of every shard (each owns
    # one cost model and one evaluator).
    works = [prelude_work, *(result["work"] for result in shard_results)]
    metrics = {
        "queries": spec.queries,
        "shards": len(shard_results),
        "group_formation": group_formation,
        "wall_seconds": round(run_wall, 3),
        "queries_per_sec": round(dispatched / total_wall, 1),
        "dispatched": dispatched,
        "shed": sum(result["shed"] for result in shard_results),
        "deferred": sum(result["deferred"] for result in shard_results),
        "windows": sum(result["windows"] for result in shard_results),
        "ga_runs": sum(result["ga_runs"] for result in shard_results),
        "reopt": {
            "p50_ms": round(_percentile_ms(reopts, 0.50), 3),
            "p95_ms": round(_percentile_ms(reopts, 0.95), 3),
            "p99_ms": round(_percentile_ms(reopts, 0.99), 3),
        },
        "total_iv": {
            "online": sum(result["total_iv"] for result in shard_results),
            **{
                f"shard{shard}": result["total_iv"]
                for shard, result in enumerate(shard_results)
            },
        },
        "work": {key: sum(work[key] for work in works) for key in works[0]},
        "peak_rss_mb": round(max(rss_kbs) / 1024.0, 1),
        # Peak-of-shards hides both skew and the fleet's real footprint;
        # record each worker's peak and their sum alongside the max.
        "rss": {
            **{
                f"shard{shard}_rss_mb": round(kb / 1024.0, 1)
                for shard, kb in enumerate(rss_kbs)
            },
            "sum_rss_mb": round(sum(rss_kbs) / 1024.0, 1),
        },
    }
    if config.telemetry:
        from repro.obs.fleet import FleetCollector

        collect_started = time.perf_counter()
        collector = FleetCollector(
            [result["telemetry"] for result in shard_results]
        )
        violations = collector.check()
        snapshot = collector.snapshot()
        collect_wall = time.perf_counter() - collect_started
        fleet = snapshot["fleet"]
        metrics["fleet"] = {
            "records": fleet["records"],
            "dropped_events": fleet["dropped_events"],
            "ledger_entries": fleet["ledger_entries"],
            "violations": len(violations),
            "collect_wall_seconds": round(collect_wall, 3),
        }
        if "total_iv" in fleet:
            metrics["fleet"]["total_iv"] = fleet["total_iv"]
        if on_fleet is not None:
            on_fleet(spec.name, collector, violations)
    return metrics


def run_scale_sweep(
    config: ScaleConfig | None = None,
    on_fleet: "Callable[[str, FleetCollector, list], None] | None" = None,
) -> dict:
    """The full sweep as the ``BENCH_scale.json`` metrics dict."""
    config = config or ScaleConfig()
    schedules = {}
    for spec in config.schedules:
        schedules[spec.name] = run_schedule(config, spec, on_fleet=on_fleet)
    return {
        "config": {
            "tables": config.tables,
            "sites": config.sites,
            "templates": config.templates,
            "shards": config.shards,
            "executor": config.executor,
            "window": config.window,
            "max_candidates": config.max_candidates,
            "trace": config.trace,
            "fleet_metrics": config.fleet_metrics,
        },
        "schedules": schedules,
    }


def run_scale(config: ScaleConfig | None = None) -> ResultTable:
    """EXT5 as a CLI result table (``python -m repro scale``)."""
    data = run_scale_sweep(config)
    table = ResultTable(
        title="EXT5: sharded scale sweep (conflict-group sharding)",
        headers=[
            "schedule", "queries", "shards", "qps", "ranges_per_sec",
            "p50_ms", "p95_ms", "p99_ms", "shed", "deferred",
            "total_iv", "rss_mb",
        ],
    )
    for name, metrics in data["schedules"].items():
        table.add(
            name,
            metrics["queries"],
            metrics["shards"],
            metrics["queries_per_sec"],
            metrics["group_formation"]["ranges_per_sec"],
            metrics["reopt"]["p50_ms"],
            metrics["reopt"]["p95_ms"],
            metrics["reopt"]["p99_ms"],
            metrics["shed"],
            metrics["deferred"],
            metrics["total_iv"]["online"],
            metrics["peak_rss_mb"],
        )
    table.add_footnote(
        "qps = dispatched / (group formation + shard runs); re-opt "
        "percentiles are over GA-bearing passes only"
    )
    table.add_footnote(
        "shards are whole conflict groups (independently plannable); "
        "per-shard runs are seeded and deterministic"
    )
    return table
