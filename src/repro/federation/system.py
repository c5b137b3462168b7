"""The federated DSS system façade.

Wires together the catalog, sites, network, cost model, replication
manager, a plan router (IVQP or a baseline) and the executor, and exposes
the two operations experiments need: submit queries (at arrival times) and
run the simulation.
"""

from __future__ import annotations

import typing
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.plan import QueryPlan
from repro.core.value import DiscountRates
from repro.engine.planner import Database
from repro.errors import ConfigError
from repro.federation.catalog import Catalog, SyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.executor import ExecutionPolicy, PlanExecutor, QueryOutcome
from repro.federation.faults import FaultInjector, FaultPlan
from repro.federation.network import NetworkModel
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.federation.sync import ReplicationManager, build_schedules
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomSource
from repro.sim.scheduler import Simulator
from repro.sim.trace import Tracer

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import DSSQuery

__all__ = ["Router", "TableSpec", "SystemConfig", "FederatedSystem", "build_system"]


class Router(typing.Protocol):
    """Chooses an execution plan for a query at submission time."""

    def choose_plan(self, query: "DSSQuery", submitted_at: float) -> QueryPlan:
        """Return the plan to execute."""
        ...  # pragma: no cover - protocol


#: Factory signature used to plug in IVQP or a baseline router.
RouterFactory = Callable[[Catalog, CostModel, DiscountRates], Router]


@dataclass(frozen=True)
class TableSpec:
    """Declarative description of one base table."""

    name: str
    site: int
    row_count: int
    row_bytes: int = 64


@dataclass
class SystemConfig:
    """Everything needed to build a :class:`FederatedSystem`."""

    tables: Sequence[TableSpec]
    replicated: Sequence[str]
    sync_mode: str = "shared"  # periodic | exponential | shared
    sync_mean_interval: float = 5.0
    rates: DiscountRates = field(default_factory=lambda: DiscountRates(0.01, 0.01))
    network: NetworkModel = field(default_factory=NetworkModel)
    cost_params: CostParameters = field(default_factory=CostParameters)
    local_capacity: int = 2
    remote_capacity: int = 1
    qos_max_staleness: float | None = None
    seed: int = 0
    engine_db: Database | None = None
    trace: bool = False  # record a Tracer timeline of system events
    #: Optional pre-scheduled faults; when set, a FaultInjector is wired
    #: through the replication manager, the executor and (for routers that
    #: support it) degraded-mode planning.
    fault_plan: FaultPlan | None = None
    #: Retry/timeout/failover behaviour of the executor under faults.
    execution_policy: ExecutionPolicy | None = None

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.tables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate table names in system config")
        unknown = set(self.replicated) - set(names)
        if unknown:
            raise ConfigError(f"replicated tables not defined: {sorted(unknown)}")


class FederatedSystem:
    """A running hybrid federation: local DSS server + remote servers."""

    def __init__(
        self,
        sim: Simulator,
        catalog: Catalog,
        sites: dict[int, Site],
        cost_model: CostModel,
        router: Router,
        replication: ReplicationManager,
        rates: DiscountRates,
        tracer: Tracer | None = None,
        injector: FaultInjector | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.catalog = catalog
        self.sites = sites
        self.cost_model = cost_model
        self.router = router
        self.replication = replication
        self.rates = rates
        self.injector = injector
        self.executor = PlanExecutor(
            sim,
            catalog,
            sites,
            policy=policy,
            faults=injector,
            cost_provider=cost_model,
            tracer=tracer,
        )
        self.iv_monitor = Monitor("information-value")
        self.cl_monitor = Monitor("computational-latency")
        self.sl_monitor = Monitor("synchronization-latency")
        self.tracer = tracer
        #: The online scheduler's decision after
        #: :meth:`submit_workload_online` (``None`` for batch submission).
        self.online = None
        self._submitted = 0
        if tracer is not None:
            replication.tracer = tracer
            if injector is not None:
                injector.tracer = tracer

    # -- operations ----------------------------------------------------------

    def submit(self, query: "DSSQuery", at: float | None = None) -> None:
        """Submit a query (now, or at an absolute future time)."""
        when = self.sim.now if at is None else float(at)
        if when < self.sim.now:
            raise ConfigError(
                f"cannot submit {query.name!r} in the past "
                f"({when} < now {self.sim.now})"
            )
        self._submitted += 1
        self.sim.process(self._submission(query, when), name=f"submit:{query.name}")

    def _submission(self, query: "DSSQuery", when: float):
        if when > self.sim.now:
            yield self.sim.timeout(when - self.sim.now)
        if self.tracer is not None:
            self.tracer.emit("submit", query.name, qid=query.query_id)
        plan = self.router.choose_plan(query, self.sim.now)
        if self.tracer is not None:
            # Exact (unrounded) estimates: the trace is an audit record, and
            # the checker compares event details to the ledger bit-for-bit.
            self.tracer.emit(
                "plan", query.name,
                qid=query.query_id,
                remote=",".join(sorted(plan.remote_tables)) or "-",
                start=plan.start_time,
                est_iv=plan.information_value,
            )
        # Execution events (exec.start … complete/failed + ledger) are
        # emitted by the executor, which owns the phase timestamps.
        outcome = yield self.executor.execute(plan)
        self.iv_monitor.observe(outcome.information_value)
        self.cl_monitor.observe(outcome.computational_latency)
        self.sl_monitor.observe(outcome.synchronization_latency)

    def submit_workload(self, workload) -> None:
        """Submit every query of a workload at its arrival time."""
        for query in workload.sorted_by_arrival():
            self.submit(query, at=workload.arrival_of(query.query_id))

    def submit_workload_mqo(self, workload, ga_config=None, seed: int = 0):
        """Schedule a workload with MQO, then realize it in this simulation.

        Runs the Section 3.2 pipeline — conflict grouping, GA ordering,
        per-query plan selection — against this system's own catalog and
        cost model, swaps the router for a replay of the decided plans, and
        submits the workload.  Returns the analytic
        :class:`~repro.mqo.online.OnlineDecision` so callers can
        compare planned against realized outcomes after :meth:`run`.
        """
        from repro.mqo.scheduler import WorkloadScheduler

        scheduler = WorkloadScheduler(
            self.catalog,
            self.cost_model,
            self.rates,
            ga_config=ga_config,
            seed=seed,
            tracer=self.tracer,
        )
        decision = scheduler.schedule(workload)
        self._replay(workload, decision)
        return decision

    def submit_workload_online(
        self, workload, config=None, ga_config=None, seed: int = 0
    ):
        """Stream a workload through the rolling-window online scheduler.

        Replays the workload's arrival stream through
        :class:`~repro.mqo.online.OnlineMQOScheduler` — admission control,
        rolling re-optimization windows, warm-started GAs — then realizes
        the decided schedule in this simulation via a replaying router.
        Queries shed by admission control are *not* submitted (they never
        execute and produce no outcome).  Returns the
        :class:`~repro.mqo.online.OnlineDecision`, also kept on
        :attr:`online` for metrics/reporting.
        """
        from repro.mqo.online import OnlineMQOScheduler

        scheduler = OnlineMQOScheduler(
            self.catalog,
            self.cost_model,
            self.rates,
            ga_config=ga_config,
            seed=seed,
            tracer=self.tracer,
            config=config,
        )
        decision = scheduler.run(workload)
        self.online = decision
        self._replay(workload, decision)
        return decision

    def _replay(self, workload, decision) -> None:
        """Route by the decision's plans and submit its executed queries
        (everything but what admission control shed) at their arrivals."""
        from repro.baselines.replay import ReplayRouter

        self.router = ReplayRouter.from_assignments(
            decision.result.assignments, enforce_schedule=True
        )
        executed = {
            assignment.query.query_id
            for assignment in decision.result.assignments
        }
        for query in workload.sorted_by_arrival():
            if query.query_id in executed:
                self.submit(query, at=workload.arrival_of(query.query_id))

    def run(self, until: float | None = None) -> None:
        """Start replication and advance the simulation."""
        self.replication.start()
        if until is None:
            self._drain()
        else:
            self.sim.run(until=until)

    def _drain(self) -> None:
        """Run until all submitted queries have completed.

        Replication processes loop forever, so a plain ``run()`` would never
        return; instead step until the outcome count catches up.
        """
        guard = 0
        while len(self.outcomes) < self._submitted:
            self.sim.step()
            guard += 1
            if guard > 50_000_000:  # pragma: no cover - runaway guard
                raise ConfigError("simulation failed to drain the workload")
        # Flush the remaining events of this instant (monitor observations
        # ride on process resumptions scheduled at the completion time).
        while self.sim.peek() <= self.sim.now:
            self.sim.step()

    # -- results -----------------------------------------------------------------

    @property
    def outcomes(self) -> list[QueryOutcome]:
        """All completed query outcomes, in completion order."""
        return self.executor.outcomes

    @property
    def ledger(self):
        """The IV audit ledger (empty unless built with ``trace=True``)."""
        return self.executor.ledger

    def metrics(self) -> dict:
        """This system's statistics as one metrics snapshot dict."""
        from repro.obs.metrics import registry_from_system

        return registry_from_system(self)

    @property
    def mean_information_value(self) -> float:
        """Mean realized IV over completed queries."""
        return self.iv_monitor.mean

    @property
    def mean_computational_latency(self) -> float:
        """Mean realized CL over completed queries."""
        return self.cl_monitor.mean

    @property
    def mean_synchronization_latency(self) -> float:
        """Mean realized SL over completed queries."""
        return self.sl_monitor.mean

    # -- fault accounting --------------------------------------------------

    @property
    def total_retries(self) -> int:
        """Remote-leg retries consumed across all outcomes."""
        return sum(outcome.retries for outcome in self.outcomes)

    @property
    def total_failovers(self) -> int:
        """Failover re-plans across all outcomes."""
        return sum(outcome.failovers for outcome in self.outcomes)

    @property
    def degraded_count(self) -> int:
        """Outcomes that needed any fault handling."""
        return sum(1 for outcome in self.outcomes if outcome.degraded)

    @property
    def failed_count(self) -> int:
        """Queries that produced no result (IV 0)."""
        return sum(1 for outcome in self.outcomes if outcome.failed)

    @property
    def fault_stats(self):
        """The injector's counters, or ``None`` without fault injection."""
        return self.injector.stats if self.injector is not None else None


def build_system(
    config: SystemConfig,
    router_factory: RouterFactory,
    sim: Simulator | None = None,
    schedules: dict[str, SyncSchedule] | None = None,
) -> FederatedSystem:
    """Construct a :class:`FederatedSystem` from a declarative config.

    Parameters
    ----------
    config:
        Tables, replication choices, rates and calibration constants.
    router_factory:
        Builds the plan router — IVQP (:func:`repro.baselines.ivqp_router`)
        or one of the Section 4.1 baselines.
    sim:
        Optional existing simulator (a fresh one is created otherwise).
    schedules:
        Optional pre-built sync schedules keyed by table name; by default
        schedules are derived from ``config.sync_mode`` and
        ``config.sync_mean_interval``.
    """
    sim = sim or Simulator()
    source = RandomSource(config.seed, "system")

    catalog = Catalog()
    site_ids = set()
    for spec in config.tables:
        catalog.add_table(
            TableDef(spec.name, spec.site, spec.row_count, spec.row_bytes)
        )
        site_ids.add(spec.site)

    if config.replicated:
        if schedules is None:
            schedules = build_schedules(
                list(config.replicated),
                mode=config.sync_mode,
                mean_interval=config.sync_mean_interval,
                source=source,
            )
        for name in config.replicated:
            catalog.add_replica(name, schedules[name])

    sites = {
        LOCAL_SITE_ID: Site(
            sim, LOCAL_SITE_ID, capacity=config.local_capacity
        )
    }
    for site_id in sorted(site_ids):
        sites[site_id] = Site(sim, site_id, capacity=config.remote_capacity)

    cost_model = CostModel(
        catalog,
        network=config.network,
        params=config.cost_params,
        engine_db=config.engine_db,
    )
    router = router_factory(catalog, cost_model, config.rates)

    injector = None
    if config.fault_plan is not None:
        # The sync-failure model needs to know which site sources each
        # replicated table; fill it in from the catalog when unset.
        if not config.fault_plan.table_sites:
            config.fault_plan.table_sites = {
                spec.name: spec.site
                for spec in config.tables
                if spec.name in set(config.replicated)
            }
        injector = FaultInjector(
            sim, config.fault_plan, sites=sites, network=config.network
        )
        # Routers that support degraded-mode planning (the IVQP optimizer)
        # get the scheduled-fault view; baselines simply ignore it.
        if hasattr(router, "availability"):
            router.availability = config.fault_plan

    replication = ReplicationManager(
        sim,
        catalog,
        qos_max_staleness=config.qos_max_staleness,
        injector=injector,
    )
    tracer = Tracer(lambda: sim.now) if config.trace else None
    return FederatedSystem(
        sim=sim,
        catalog=catalog,
        sites=sites,
        cost_model=cost_model,
        router=router,
        replication=replication,
        rates=config.rates,
        tracer=tracer,
        injector=injector,
        policy=config.execution_policy,
    )
