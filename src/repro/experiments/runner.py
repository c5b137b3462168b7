"""Generic experiment execution helpers.

One "run" builds a fresh federated system for an approach, submits a query
stream with Poisson arrivals, drains the simulation and returns the per-run
aggregates every figure needs.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

from repro.baselines import federation_router, ivqp_router, warehouse_router
from repro.errors import ConfigError
from repro.federation.executor import QueryOutcome
from repro.federation.system import FederatedSystem, SystemConfig, build_system
from repro.workload.arrival import poisson_arrivals
from repro.workload.query import DSSQuery, Workload

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mqo.online import OnlineConfig, OnlineDecision
    from repro.obs.ledger import IVLedgerEntry
    from repro.sim.trace import Tracer

__all__ = [
    "APPROACHES",
    "RunResult",
    "reissue_stream",
    "run_stream",
    "run_single_queries",
]

#: Router factories by approach name.  ``ivqp-partial`` is the same router
#: on the paper-literal partial-replication infrastructure (see
#: :meth:`repro.experiments.config.TpchSetup.system_config`).
APPROACHES = {
    "ivqp": ivqp_router,
    "ivqp-partial": ivqp_router,
    "federation": federation_router,
    "warehouse": warehouse_router,
}


@dataclass
class RunResult:
    """Aggregates of one simulated stream."""

    approach: str
    mean_iv: float
    mean_cl: float
    mean_sl: float
    outcomes: list[QueryOutcome]
    #: The run's tracer and IV audit ledger when tracing was requested
    #: (``trace=True`` or a ``SystemConfig`` built with ``trace=True``).
    tracer: "Tracer | None" = None
    ledger: "list[IVLedgerEntry]" = field(default_factory=list)
    #: The drained system behind the run (for metrics/checker access).
    system: FederatedSystem | None = None
    #: The online scheduler's decision when ``run_stream(online=True)``.
    online: "OnlineDecision | None" = None

    @property
    def per_query_cl(self) -> dict[str, float]:
        """Mean realized CL keyed by query name."""
        return _per_query(self.outcomes, "computational_latency")

    @property
    def per_query_sl(self) -> dict[str, float]:
        """Mean realized SL keyed by query name."""
        return _per_query(self.outcomes, "synchronization_latency")


def _per_query(outcomes: list[QueryOutcome], attribute: str) -> dict[str, float]:
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for outcome in outcomes:
        name = outcome.query.name
        sums[name] = sums.get(name, 0.0) + getattr(outcome, attribute)
        counts[name] = counts.get(name, 0) + 1
    return {name: sums[name] / counts[name] for name in sums}


def _build(config: SystemConfig, approach: str) -> FederatedSystem:
    try:
        factory = APPROACHES[approach]
    except KeyError:
        raise ConfigError(
            f"unknown approach {approach!r}; expected one of {sorted(APPROACHES)}"
        )
    return build_system(config, factory)


def reissue_stream(queries: list[DSSQuery], rounds: int = 1) -> list[DSSQuery]:
    """``rounds`` passes over ``queries``, re-id'd into one duplicate-free stream.

    Each submission is a :func:`dataclasses.replace` copy differing only in
    ``query_id`` — every field a :class:`DSSQuery` has (or grows later)
    survives the round trip.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    stream: list[DSSQuery] = []
    next_id = 1
    for _round in range(rounds):
        for query in queries:
            stream.append(dataclasses.replace(query, query_id=next_id))
            next_id += 1
    return stream


def run_stream(
    config: SystemConfig,
    approach: str,
    queries: list[DSSQuery],
    mean_interarrival: float,
    rounds: int = 1,
    arrival_seed: int = 3,
    trace: bool = False,
    online: bool = False,
    online_config: "OnlineConfig | None" = None,
    on_system: "typing.Callable[[FederatedSystem], None] | None" = None,
) -> RunResult:
    """Submit ``rounds`` passes over ``queries`` as a Poisson stream.

    ``trace=True`` turns on the observability layer for this run (span
    events + IV audit ledger) without touching the caller's config; the
    tracer and ledger come back on the :class:`RunResult`.  Tracing is
    pure bookkeeping — aggregates are bit-identical either way.

    ``online=True`` routes the stream through the rolling-window online
    MQO scheduler (:class:`~repro.mqo.online.OnlineMQOScheduler`) instead
    of per-submission routing: admission control may shed queries (they
    produce no outcome) and the decided schedule is replayed through the
    simulation.  The :class:`~repro.mqo.online.OnlineDecision` comes back
    on :attr:`RunResult.online`.

    ``on_system`` is called with the freshly built system before anything
    is submitted — the hook point where live telemetry (a
    :class:`~repro.obs.live.LiveRegistry`, an SLO monitor) subscribes to
    the tracer so it sees every event of the run.
    """
    if trace and not config.trace:
        config = dataclasses.replace(config, trace=True)
    system = _build(config, approach)
    if on_system is not None:
        on_system(system)
    stream = reissue_stream(queries, rounds)
    arrivals = poisson_arrivals(mean_interarrival, len(stream), seed=arrival_seed)
    workload = Workload.from_queries(stream, arrivals=arrivals)
    if online:
        system.submit_workload_online(workload, config=online_config)
    else:
        system.submit_workload(workload)
    system.run()
    return RunResult(
        approach=approach,
        mean_iv=system.mean_information_value,
        mean_cl=system.mean_computational_latency,
        mean_sl=system.mean_synchronization_latency,
        outcomes=system.outcomes,
        tracer=system.tracer,
        ledger=system.ledger,
        system=system,
        online=system.online,
    )


def run_single_queries(
    config: SystemConfig,
    approach: str,
    queries: list[DSSQuery],
    submit_at: float = 50.0,
) -> RunResult:
    """Run each query alone on a fresh system (uncontended latencies).

    Used by the per-query latency figures (6 and 7): one system per query,
    submitted at ``submit_at`` so replicas have gone through some
    synchronization history first.
    """
    outcomes: list[QueryOutcome] = []
    for query in queries:
        system = _build(config, approach)
        system.submit(query, at=submit_at)
        system.run()
        outcomes.extend(system.outcomes)
    count = max(len(outcomes), 1)
    return RunResult(
        approach=approach,
        mean_iv=sum(o.information_value for o in outcomes) / count,
        mean_cl=sum(o.computational_latency for o in outcomes) / count,
        mean_sl=sum(o.synchronization_latency for o in outcomes) / count,
        outcomes=outcomes,
    )
