"""Plan execution inside the simulation.

Executes a chosen :class:`~repro.core.plan.QueryPlan` as simulation
processes: wait until the plan's start time, run the remote legs in
parallel on their sites' servers, assemble at the local federation server,
transmit the result, and record a :class:`QueryOutcome` with *realized*
latencies and information value.

Realized freshness is accounted honestly: a base table's data is as of the
moment its remote leg actually starts (queuing included), and a replica's
freshness is whatever the replica holds when local processing begins — if a
synchronization landed while the query sat in queue, the result is fresher
than planned.

Fault tolerance (only active when a
:class:`~repro.federation.faults.FaultPlan` is attached) follows an
:class:`ExecutionPolicy`: a remote leg that finds its site down waits for
recovery and retries with exponential backoff; a leg stuck in a remote
queue past ``leg_timeout`` withdraws and retries; a leg interrupted
mid-execution by an outage loses its work and retries.  When a leg
exhausts its retries the executor *fails over*: the lost site's tables are
re-planned onto their local replicas and execution resumes without
re-running legs that already finished.  Queries with no replica to fall
back on are recorded as failed outcomes (IV 0) — never silently dropped.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from repro.core.plan import QueryPlan, VersionKind
from repro.core.value import information_value
from repro.errors import ConfigError, PlanError
from repro.federation.catalog import Catalog
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.obs import events
from repro.obs.ledger import IVLedgerEntry, VersionProvenance
from repro.sim.scheduler import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.enumeration import CostProvider
    from repro.federation.faults import FaultPlan
    from repro.federation.network import NetworkModel
    from repro.sim.trace import Tracer

__all__ = ["ExecutionPolicy", "QueryOutcome", "PlanExecutor"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the executor reacts to remote-leg failures.

    Attributes
    ----------
    max_retries:
        Retries *per leg* before giving up on its site.
    retry_backoff:
        Base backoff in minutes; attempt ``k`` waits ``k × retry_backoff``
        on top of any outage-recovery wait (exponential-ish, deterministic).
    leg_timeout:
        Maximum minutes a leg may sit in a remote queue before withdrawing
        and retrying (``None`` disables queue timeouts).
    failover:
        Whether a leg that exhausts retries may be re-planned onto the
        lost tables' replicas instead of failing the query.
    """

    max_retries: int = 3
    retry_backoff: float = 0.1
    leg_timeout: float | None = None
    failover: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.retry_backoff < math.inf:
            raise ConfigError(
                f"retry_backoff must be finite and >= 0, got {self.retry_backoff}"
            )
        if self.leg_timeout is not None and not 0 < self.leg_timeout < math.inf:
            raise ConfigError(
                f"leg_timeout must be finite and > 0, got {self.leg_timeout}"
            )


@dataclass
class QueryOutcome:
    """Realized execution record of one query."""

    plan: QueryPlan
    submitted_at: float
    started_at: float
    completed_at: float
    data_timestamp: float
    queue_wait: float
    #: Longest queueing wait among the remote legs (minutes).
    remote_wait: float = 0.0
    #: Remote-leg retry attempts consumed across the whole execution.
    retries: int = 0
    #: Times the executor re-planned lost tables onto replicas.
    failovers: int = 0
    #: Whether any fault-handling path fired (retry, failover or failure).
    degraded: bool = False
    #: The query produced no result (no retry or failover could save it).
    failed: bool = False
    #: Phase boundaries (observability): when the last remote leg settled,
    #: when the local server granted, and when local assembly finished.
    #: For failed queries all three collapse onto ``completed_at``.
    remote_done_at: float = 0.0
    local_granted_at: float = 0.0
    local_done_at: float = 0.0

    @property
    def query(self):
        """The executed query."""
        return self.plan.query

    @property
    def computational_latency(self) -> float:
        """Realized CL: submission → result receipt."""
        return self.completed_at - self.submitted_at

    @property
    def synchronization_latency(self) -> float:
        """Realized SL: stalest data read → result receipt."""
        return max(0.0, self.completed_at - self.data_timestamp)

    @property
    def information_value(self) -> float:
        """Realized IV of the delivered report (0 for failed queries)."""
        if self.failed:
            return 0.0
        return information_value(
            self.plan.query.business_value,
            self.computational_latency,
            self.synchronization_latency,
            self.plan.rates,
        )

    def describe(self) -> str:
        """One-line summary of the outcome."""
        marks = ""
        if self.failed:
            marks = " FAILED"
        elif self.degraded:
            marks = f" degraded(retries={self.retries}, failovers={self.failovers})"
        return (
            f"{self.plan.query.name}: CL={self.computational_latency:.2f} "
            f"SL={self.synchronization_latency:.2f} "
            f"IV={self.information_value:.4f} "
            f"(wait={self.queue_wait:.2f}){marks}"
        )


class PlanExecutor:
    """Runs plans on the system's sites and collects outcomes."""

    def __init__(
        self,
        sim: Simulator,
        catalog: Catalog,
        sites: dict[int, Site],
        policy: ExecutionPolicy | None = None,
        faults: "FaultPlan | None" = None,
        cost_provider: "CostProvider | None" = None,
        tracer: "Tracer | None" = None,
        network: "NetworkModel | None" = None,
    ) -> None:
        """``tracer`` enables span events and the IV ledger; ``network``
        gives the base latency a degraded link multiplies (0.0 without)."""
        self.sim = sim
        self.catalog = catalog
        self.sites = sites
        self.policy = policy or ExecutionPolicy()
        self.faults = faults
        self.cost_provider = cost_provider
        self.tracer = tracer
        self.network = network
        self.outcomes: list[QueryOutcome] = []
        #: IV audit ledger (one entry per outcome) when a tracer is attached.
        self.ledger: list[IVLedgerEntry] = []

    def site(self, site_id: int) -> Site:
        """Look up a site (local server under :data:`LOCAL_SITE_ID`)."""
        return self.sites[site_id]

    def execute(self, plan: QueryPlan):
        """Start executing a plan; returns the driving process (joinable)."""
        return self.sim.process(self._run(plan), name=f"exec:{plan.query.name}")

    def _emit(self, kind: str, plan: QueryPlan, **detail) -> None:
        """Trace one lifecycle event for ``plan``'s query (no-op untraced)."""
        if self.tracer is not None:
            self.tracer.emit(
                kind, plan.query.name, qid=plan.query.query_id, **detail
            )

    # -- simulation processes ----------------------------------------------

    def _retries_spent(self, plan: QueryPlan, site_id: int, record: dict) -> bool:
        """Count one more retry of a failed leg, or, once the policy's
        retries are spent, mark the leg for failover and report it."""
        if record["retries"] >= self.policy.max_retries:
            record["status"] = "failover"
            self._emit(events.LEG_EXHAUSTED, plan, site=site_id)
            return True
        record["retries"] += 1
        return False

    def _remote_leg(self, plan: QueryPlan, site_id: int, minutes: float, record: dict):
        """One remote leg; ``record`` reports wait/retries/freshness/status."""
        sim = self.sim
        site = self.site(site_id)
        faults = self.faults
        policy = self.policy
        self._emit(events.LEG_START, plan, site=site_id)
        while True:
            if faults is not None and faults.is_site_down(site_id, sim.now):
                # Down before we even connect: wait out the outage, back off.
                if self._retries_spent(plan, site_id, record):
                    return
                up = faults.site_up_at(site_id, sim.now)
                self._emit(
                    events.LEG_BLOCKED, plan, site=site_id, until=up,
                    attempt=record["retries"],
                )
                yield sim.timeout(
                    max(0.0, up - sim.now)
                    + policy.retry_backoff * record["retries"]
                )
                continue
            request = site.server.request()
            if policy.leg_timeout is not None:
                timer = sim.timeout(policy.leg_timeout)
                yield sim.any_of([request, timer])
                if request.granted_at is None:
                    # Timed out in queue: withdraw, back off, try again.
                    request.cancel()
                    if self._retries_spent(plan, site_id, record):
                        return
                    self._emit(
                        events.LEG_RETRY, plan, site=site_id,
                        reason="queue-timeout", attempt=record["retries"],
                    )
                    yield sim.timeout(policy.retry_backoff * record["retries"])
                    continue
            else:
                yield request
            granted = sim.now
            record["wait"] = max(record["wait"], request.wait_time)
            self._emit(
                events.LEG_GRANTED, plan, site=site_id, wait=request.wait_time,
            )
            service = minutes
            if faults is not None:
                base_latency = (
                    self.network.link(site_id).base_latency
                    if self.network is not None
                    else 0.0
                )
                service += faults.leg_penalty(
                    site_id, granted, minutes, base_latency
                )
                outage = faults.next_outage_after(site_id, granted)
                if outage < granted + service:
                    # The site fails under us: work until the outage hits,
                    # then the partial work is lost.
                    if outage > granted:
                        yield sim.timeout(outage - granted)
                    site.server.release(request)
                    if self._retries_spent(plan, site_id, record):
                        return
                    self._emit(
                        events.LEG_RETRY, plan, site=site_id,
                        reason="interrupted", attempt=record["retries"],
                    )
                    up = faults.site_up_at(site_id, sim.now)
                    yield sim.timeout(
                        max(0.0, up - sim.now)
                        + policy.retry_backoff * record["retries"]
                    )
                    continue
            try:
                yield sim.timeout(service)
            finally:
                site.server.release(request)
            record["freshness"] = granted  # base data is as-of leg start
            record["status"] = "ok"
            self._emit(events.LEG_DONE, plan, site=site_id, freshness=granted)
            return

    def _failover_plan(
        self, current: QueryPlan, lost_sites: list[int]
    ) -> QueryPlan | None:
        """Re-plan the lost sites' base tables onto their replicas."""
        if not self.policy.failover or self.cost_provider is None:
            return None
        # Imported lazily: enumeration sits above the federation package.
        from repro.core.enumeration import make_plan
        lost = set(lost_sites)
        lost_tables = {
            version.table
            for version in current.versions
            if version.kind is VersionKind.BASE
            and self.catalog.table(version.table).site in lost
        }
        if not lost_tables:
            return None
        if any(not self.catalog.has_replica(name) for name in lost_tables):
            return None  # no fallback copy exists; the query is lost
        try:
            return make_plan(
                current.query,
                self.catalog,
                self.cost_provider,
                current.rates,
                current.submitted_at,
                max(self.sim.now, current.submitted_at),
                current.remote_tables - lost_tables,
            )
        except PlanError:
            return None

    def _finish(
        self, outcome: QueryOutcome, versions: tuple[VersionProvenance, ...]
    ) -> QueryOutcome:
        """Record the outcome and, when traced, its ledger entry."""
        self.outcomes.append(outcome)
        if self.tracer is not None:
            plan = outcome.plan
            entry = IVLedgerEntry(
                query=plan.query.name,
                query_id=plan.query.query_id,
                business_value=plan.query.business_value,
                lambda_cl=plan.rates.computational,
                lambda_sl=plan.rates.synchronization,
                submitted_at=outcome.submitted_at,
                started_at=outcome.started_at,
                remote_done_at=outcome.remote_done_at,
                local_granted_at=outcome.local_granted_at,
                local_done_at=outcome.local_done_at,
                completed_at=outcome.completed_at,
                data_timestamp=outcome.data_timestamp,
                queue_wait=outcome.queue_wait,
                remote_wait=outcome.remote_wait,
                retries=outcome.retries,
                failovers=outcome.failovers,
                degraded=outcome.degraded,
                failed=outcome.failed,
                reported_iv=outcome.information_value,
                versions=versions,
            )
            self.ledger.append(entry)
            # The ledger detail is exactly ``entry.to_dict()`` (no qid key)
            # so the checker can round-trip it via ``from_dict``.
            self.tracer.emit(events.LEDGER, plan.query.name, **entry.to_dict())
        return outcome

    def _run(self, plan: QueryPlan):
        sim = self.sim
        submitted_at = plan.submitted_at
        # Delayed plans wait for their scheduled start (e.g. a sync point).
        if plan.start_time > sim.now:
            yield sim.timeout(plan.start_time - sim.now)
        started_at = sim.now
        self._emit(events.EXEC_START, plan, scheduled=plan.start_time)

        # Remote legs run in parallel on their sites; a site whose leg
        # exhausts its retries triggers a failover re-plan, and legs that
        # already finished are never re-run.
        current = plan
        completed: dict[int, dict] = {}
        retries = 0
        failovers = 0
        remote_wait = 0.0
        failed = False
        while True:
            records: list[dict] = []
            legs = []
            for site_id, minutes in current.cost.site_legs:
                if site_id in completed:
                    continue
                record = {
                    "site": site_id,
                    "status": "pending",
                    "wait": 0.0,
                    "retries": 0,
                    "freshness": None,
                }
                records.append(record)
                legs.append(
                    sim.process(
                        self._remote_leg(current, site_id, minutes, record),
                        name=f"leg:{current.query.name}@{site_id}",
                    )
                )
            if legs:
                yield sim.all_of(legs)
            for record in records:
                retries += record["retries"]
                remote_wait = max(remote_wait, record["wait"])
                if record["status"] == "ok":
                    completed[record["site"]] = record
            lost = [r["site"] for r in records if r["status"] != "ok"]
            if not lost:
                break
            replacement = self._failover_plan(current, lost)
            if replacement is None:
                failed = True
                break
            failovers += 1
            self._emit(events.FAILOVER, current, lost=sorted(lost))
            current = replacement

        if failed:
            completed_at = sim.now
            self._emit(
                events.FAILED, current, retries=retries, failovers=failovers,
            )
            outcome = QueryOutcome(
                plan=current,
                submitted_at=submitted_at,
                started_at=started_at,
                completed_at=completed_at,
                data_timestamp=started_at,
                queue_wait=0.0,
                remote_wait=remote_wait,
                retries=retries,
                failovers=failovers,
                degraded=True,
                failed=True,
                remote_done_at=completed_at,
                local_granted_at=completed_at,
                local_done_at=completed_at,
            )
            return self._finish(outcome, ())

        remote_done_at = sim.now
        self._emit(events.REMOTE_DONE, current, legs=len(completed))

        # Local assembly / replica scans at the federation server.  The
        # request is opened at the remote-done instant, so its wait time is
        # exactly ``local_granted_at − remote_done_at`` — the ledger's
        # queue-wait invariant holds bit-for-bit.
        local = self.site(LOCAL_SITE_ID)
        request = local.server.request()
        yield request
        local_start = sim.now
        self._emit(events.LOCAL_GRANTED, current, wait=request.wait_time)
        try:
            yield sim.timeout(current.cost.local_minutes)
        finally:
            local.server.release(request)
        local_done_at = sim.now
        self._emit(events.LOCAL_DONE, current)

        if current.cost.transmission > 0:
            yield sim.timeout(current.cost.transmission)
        completed_at = sim.now

        # Realized freshness per version kind: base tables are as-of their
        # leg's actual start; replicas hold whatever synchronizations have
        # actually been applied by local processing start.
        freshness: list[float] = []
        provenance: list[VersionProvenance] = []
        for version in current.versions:
            if version.kind is VersionKind.BASE:
                site_id = self.catalog.table(version.table).site
                record = completed.get(site_id)
                realized = (
                    record["freshness"] if record is not None else version.freshness
                )
                freshness.append(realized)
                if self.tracer is not None:
                    provenance.append(VersionProvenance(
                        table=version.table,
                        kind="base",
                        site=site_id,
                        planned_freshness=version.freshness,
                        realized_freshness=realized,
                        last_sync_at=None,
                    ))
            else:
                replica = self.catalog.replica(version.table)
                realized = replica.realized_freshness_at(local_start)
                freshness.append(realized)
                if self.tracer is not None:
                    provenance.append(VersionProvenance(
                        table=version.table,
                        kind="replica",
                        site=None,
                        planned_freshness=version.freshness,
                        realized_freshness=realized,
                        last_sync_at=realized,
                    ))

        data_timestamp = min(freshness) if freshness else started_at
        outcome = QueryOutcome(
            plan=current,
            submitted_at=submitted_at,
            started_at=started_at,
            completed_at=completed_at,
            data_timestamp=data_timestamp,
            # Measured directly on the local request — never inferred by
            # subtracting estimated leg minutes from wall-clock.
            queue_wait=request.wait_time,
            remote_wait=remote_wait,
            retries=retries,
            failovers=failovers,
            degraded=retries > 0 or failovers > 0,
            remote_done_at=remote_done_at,
            local_granted_at=local_start,
            local_done_at=local_done_at,
        )
        self._emit(
            events.COMPLETE, current,
            iv=outcome.information_value,
            cl=outcome.computational_latency,
            sl=outcome.synchronization_latency,
        )
        return self._finish(outcome, tuple(provenance))
