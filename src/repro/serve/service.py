"""The live query service: OnlineSession under a WallClock.

:class:`QueryService` is the serving counterpart of
:meth:`~repro.mqo.online.OnlineMQOScheduler.run`: the same clock-agnostic
:class:`~repro.mqo.online.OnlineSession` handles every event, but events
come from a :class:`~repro.sim.clocks.WallClock` — arrivals are pushed by
live submissions, window closes fire when their wall deadline is really
due, and completions resolve the submitters' futures.

The loop hands each popped event to :func:`~repro.mqo.online.step` with
three observers, in order: :class:`~repro.mqo.online.LifecycleTrace`
(the per-query trace), the service itself (decision and result futures,
``results``) and a :class:`~repro.durable.recovery.JournalObserver` (the
journal and its checkpoints; without a journal it only keeps
``ledgers``).  Resume replays the journal tail through the first two, so
a resumed service's trace and results are the ones a live run produces.

Contracts the simulations already enforce carry over unchanged:

* **Checker-clean trace.**  Every admitted query gets the full lifecycle
  (``submit → plan → exec.start → complete → ledger``) with an
  :class:`~repro.obs.ledger.IVLedgerEntry` whose ``recompute_iv`` is
  bit-identical to the reported IV; shed queries get ``mqo.shed`` and no
  ``submit`` (they never enter the system).  ``TraceChecker().check``
  passes on a drained service's trace — ``serve-smoke`` asserts it.
* **Deterministic replay.**  The service records every arrival as an
  :class:`~repro.mqo.online.ArrivalRecord` (stamp + heap position);
  :meth:`QueryService.replay` re-runs the trace through a
  :class:`~repro.sim.clocks.SimClock` and reproduces the live
  ``decisions`` log exactly (the clock-equivalence property).
* **Live telemetry.**  A :class:`~repro.obs.live.LiveRegistry` and
  :class:`~repro.obs.slo.SLOMonitor` subscribe to the same tracer; the
  HTTP layer serves their snapshot as ``/metrics`` and the dashboard
  renderer as ``/status``.  Shutdown finalizes the monitor so no alert
  dangles open.

Stream time is in minutes (``WallClock.seconds_per_minute`` compresses
it); the service's *logical* clock — what the tracer stamps — is the
event time of the latest popped event, so trace times are exactly the
times the scheduling decisions were made at.
"""

from __future__ import annotations

import asyncio
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from repro.durable.journal import JournalWriter
from repro.durable.recovery import (
    JournalObserver,
    arrival_record,
    header_record,
    recover,
)
from repro.errors import WorkloadError
from repro.mqo.ga import GAConfig
from repro.mqo.online import (
    ArrivalRecord,
    LifecycleTrace,
    OnlineConfig,
    OnlineMQOScheduler,
    OnlineSession,
    SessionObserver,
    finish,
    replay_decisions,
    step,
)
from repro.obs import events
from repro.obs.ledger import IVLedgerEntry
from repro.obs.live import LiveRegistry
from repro.obs.slo import SLOMonitor, default_slo_rules
from repro.sim.clocks import WallClock
from repro.sim.trace import Tracer
from repro.testbed import Fig9Config, build_mqo_stack
from repro.workload.generator import random_queries
from repro.workload.query import DSSQuery, Workload

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.checker import Violation

__all__ = [
    "ServeConfig",
    "QueryService",
    "journal_serve_config",
    "build_serve_scheduler",
]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one service instance."""

    #: Wall seconds per stream minute (1.0 = compressed; 60.0 = honest
    #: real time; benches go much smaller).
    seconds_per_minute: float = 1.0
    #: Rolling re-optimization window (stream minutes).
    window: float = 2.0
    #: Pending-queue bound; overflow defers to the next window.
    max_pending: int = 16
    #: Admission floor (shed below this IV upper bound).
    iv_floor: float = 0.0
    #: Optimize immediately on arrival to an idle system.
    eager_start: bool = True
    #: How many query templates the catalog workload exposes.
    num_templates: int = 12
    #: Seed for the synthetic federation and the GA.
    seed: int = 11
    #: GA generations per group (serving favors low re-optimization cost).
    ga_generations: int = 20
    #: Tracer retention (None = unbounded; a long-lived service bounds it).
    trace_capacity: int | None = None
    #: Attach the stock SLO rule set.
    slo: bool = True
    #: With a journal: checkpoint every N pops (0 = explicit ``/checkpoint``
    #: requests only; the journal alone already suffices for exact resume —
    #: snapshots just shorten the replayed tail).
    snapshot_every: int = 0
    #: Journal fsync cadence (1 = every record reaches stable storage).
    journal_fsync_every: int = 1


def build_serve_scheduler(
    config: ServeConfig, tracer: Tracer | None = None
) -> tuple[OnlineMQOScheduler, list[DSSQuery]]:
    """The service's scheduler + template catalog, from one config.

    Shared by :class:`QueryService` and the ``resume-verify`` audit: any
    consumer that must replay a serve journal bit-exactly needs *this*
    construction (same federation seed, same GA config, same templates),
    nothing else.
    """
    catalog, cost_model, rates, setup = build_mqo_stack(
        Fig9Config(seed=config.seed)
    )
    templates = random_queries(
        setup.instance, count=config.num_templates, seed=config.seed + 1000,
    )
    scheduler = OnlineMQOScheduler(
        catalog,
        cost_model,
        rates,
        ga_config=GAConfig(generations=config.ga_generations),
        seed=config.seed,
        tracer=tracer,
        config=OnlineConfig(
            window=config.window,
            max_pending=config.max_pending,
            iv_floor=config.iv_floor,
            eager_start=config.eager_start,
        ),
    )
    return scheduler, templates


def journal_serve_config(path: str | Path) -> ServeConfig:
    """Read the :class:`ServeConfig` a journal's header was written under.

    Resume *must* reconstruct the scheduler with the crashed run's exact
    configuration — seeds, GA generations, window — or the deterministic
    replay diverges.  The header record carries it, so ``serve --resume``
    and ``resume-verify`` never trust the command line over the journal.
    """
    from repro.durable.journal import scan_journal

    records, _valid, _error = scan_journal(path)
    if not records or records[0][0].get("kind") != "header":
        raise WorkloadError(
            f"journal {path} has no readable header to resume from"
        )
    meta = records[0][0].get("meta", {})
    config = meta.get("serve_config")
    if not isinstance(config, dict):
        raise WorkloadError(
            f"journal {path} was not written by the serving layer "
            f"(no serve_config in header)"
        )
    unknown = sorted(set(config) - {field.name for field in fields(ServeConfig)})
    if unknown:
        raise WorkloadError(
            f"journal {path} header's serve_config has unknown key(s) "
            f"{', '.join(map(repr, unknown))}"
        )
    return ServeConfig(**config)


class QueryService(SessionObserver):
    """Accepts live query submissions and schedules them in real time.

    Drive it from asyncio: start :meth:`run` as a task, call
    :meth:`submit` from request handlers, await the returned futures,
    and finish with :meth:`begin_shutdown` (the run task then drains and
    returns).  All methods are event-loop-internal — no locking, exactly
    like the single-threaded sim loop this mirrors.

    With ``journal`` set, every input — each arrival, and each pop
    stamped with the digest of the outputs so far — is appended (and
    fsync'd) as the loop runs, so a killed process can be resurrected
    with ``resume=True``: recovery replays the journal through a fresh
    scheduler (:func:`repro.durable.recovery.recover`), auditing the
    digest chain as it goes, continues that chain, rebuilds the
    trace and results through the same observers the live loop runs, and
    transplants the restored event heap under a new
    :class:`~repro.sim.clocks.WallClock` anchored at the crashed run's
    stream frontier — overdue events pop immediately, new submissions
    continue the same qid sequence, and the decision log is bit-equal to
    a run that never died.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        journal: str | Path | None = None,
        resume: bool = False,
    ) -> None:
        self.config = config or ServeConfig()
        self._logical_now = 0.0
        self.tracer = Tracer(
            lambda: self._logical_now, capacity=self.config.trace_capacity
        )
        self.registry = LiveRegistry().attach(self.tracer)
        self.monitor: SLOMonitor | None = None
        if self.config.slo:
            self.monitor = SLOMonitor(
                default_slo_rules(), self.registry
            ).attach(self.tracer)
        self.scheduler, self.templates = build_serve_scheduler(
            self.config, tracer=self.tracer
        )
        self._template_by_name = {
            template.name: template for template in self.templates
        }
        self.workload = Workload()
        self.clock = WallClock(
            seconds_per_minute=self.config.seconds_per_minute
        )
        self.session: OnlineSession = self.scheduler.session(
            self.workload, self.clock
        )
        #: Whether new submissions are admitted (cleared at shutdown).
        self.accepting = True
        self._next_qid = 0
        self.arrival_log: list[ArrivalRecord] = []
        self.results: dict[int, dict] = {}
        self._decision_futures: dict[int, asyncio.Future] = {}
        self._result_futures: dict[int, asyncio.Future] = {}
        self._journal: JournalWriter | None = None
        self._journal_path = Path(journal) if journal is not None else None
        self._trace = LifecycleTrace(self.tracer)
        self.resumed_at_pops: int | None = None
        if self._journal_path is not None:
            if resume and self._journal_path.exists():
                self._resume_from_journal()
            else:
                self._journal = JournalWriter(
                    self._journal_path,
                    fsync_every=self.config.journal_fsync_every,
                )
                self._journal.append(header_record({
                    "driver": "serve",
                    "serve_config": asdict(self.config),
                }))
        if self.resumed_at_pops is None:
            self._book = JournalObserver(self._journal)
        self._book.snapshot_every = self.config.snapshot_every
        self._book.checkpoint = self.checkpoint
        #: Lifecycle trace, then futures and results, then the journal
        #: (whose checkpoint persists what the first two recorded).
        self._observers = (self._trace, self, self._book)

    # -- submissions ---------------------------------------------------------

    @property
    def pops(self) -> int:
        """Clock events popped so far (across a resume, too)."""
        return self._book.pops

    @property
    def ledgers(self) -> list[IVLedgerEntry]:
        """The IV ledger entry of every completed query, in order."""
        return self._book.ledgers

    def _resolve_template(self, template: object) -> DSSQuery:
        if isinstance(template, int) or (
            isinstance(template, str) and template.lstrip("-").isdigit()
        ):
            index = int(template)
            if not 0 <= index < len(self.templates):
                raise WorkloadError(
                    f"template index {index} out of range "
                    f"0..{len(self.templates) - 1}"
                )
            return self.templates[index]
        if template in self._template_by_name:
            return self._template_by_name[typing.cast(str, template)]
        raise WorkloadError(
            f"unknown template {template!r}; expected an index or one of "
            f"{sorted(self._template_by_name)}"
        )

    def submit(
        self,
        template: object,
        business_value: float | None = None,
    ) -> tuple[int, asyncio.Future, asyncio.Future]:
        """Submit one query; returns ``(qid, decision, result)`` futures.

        ``decision`` resolves to ``"admitted" | "deferred" | "shed"`` once
        the scheduling loop handles the arrival; ``result`` resolves to
        the result payload (with the IV ledger entry) at completion — or
        immediately to a shed notice.  Raises
        :class:`~repro.errors.WorkloadError` on an unknown template or a
        service that is shutting down.
        """
        if not self.accepting:
            raise WorkloadError("service is shutting down; not accepting")
        query = self._resolve_template(template)
        qid = self._next_qid
        self._next_qid += 1
        query = replace(query, query_id=qid)
        if business_value is not None:
            query = query.with_value(business_value)
        stamp = self.clock.now
        loop = asyncio.get_running_loop()
        decision: asyncio.Future = loop.create_future()
        result: asyncio.Future = loop.create_future()
        self._decision_futures[qid] = decision
        self._result_futures[qid] = result
        self.workload.add(query, arrival=stamp)
        # The heap position (pops_before) is the half of the arrival's
        # identity a timestamp can't carry — see ArrivalRecord.
        self.arrival_log.append(ArrivalRecord(qid, stamp, self.pops))
        if self._journal is not None:
            # Journal *before* push: once the arrival can influence a
            # decision it must already be durable.
            self._journal.append(arrival_record(query, stamp, self.pops))
        self.clock.push(stamp, "arrival", qid)
        return qid, decision, result

    # -- the serving loop ----------------------------------------------------

    async def run(self) -> None:
        """Pop clock events until shutdown drains the last one."""
        while (item := await self.clock.wait_pop()) is not None:
            step(self.session, *item, self._observers)
        finish(self.session, self._observers)
        if self._journal is not None:
            self._journal.close()
        if self.monitor is not None:
            self.monitor.finalize(self._logical_now)

    def begin_shutdown(self) -> None:
        """Stop accepting and let :meth:`run` drain and return."""
        self.accepting = False
        self.clock.stop()

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> dict:
        """Journal a full session snapshot; returns a small report.

        The snapshot carries the serving layer's private state in the
        record's ``extra`` — logical clock, next qid, finished results
        and the full trace — so :meth:`_resume_from_journal` can rebuild
        the observable service, not just the scheduler.  Raises
        :class:`~repro.errors.WorkloadError` when journaling is off.
        """
        if self._journal is None or self._journal.closed:
            raise WorkloadError(
                "journaling is disabled or already closed; start the "
                "service with a journal path to checkpoint"
            )
        self.tracer.emit(events.CHECKPOINT, "journal", pops=self.pops)
        extra = {
            "logical_now": self._logical_now,
            "next_qid": self._next_qid,
            "results": {
                str(qid): payload for qid, payload in self.results.items()
            },
            "trace": [
                [record.time, record.kind, record.subject, record.detail]
                for record in self.tracer.records
            ],
        }
        offset = self._book.snapshot(self.session, extra)
        self._journal.sync()
        return {
            "ok": True,
            "pops": self.pops,
            "offset": offset,
            "journal_bytes": self._journal.bytes_written,
        }

    def _resume_from_journal(self) -> None:
        """Rebuild this service's exact state from its crashed journal.

        Recovery replays the journal through the (identically seeded)
        fresh scheduler; ``on_restore`` re-emits the checkpointed trace
        (alert events excluded — the attached SLO monitor regenerates them
        from the stream, which also rebuilds its open-alert state), and
        the replayed tail runs through the live loop's own trace and
        results observers.  Afterwards the restored heap is transplanted
        under a wall clock anchored at the crashed run's stream frontier.
        """
        assert self._journal_path is not None
        recovered = recover(
            self._journal_path,
            self.scheduler,
            on_restore=self._restore_extra,
            observers=(self._trace, self),
        )
        self.session = recovered.session
        self.workload = self.session.workload
        self.arrival_log = list(recovered.arrivals)
        if recovered.arrivals:
            self._next_qid = max(
                self._next_qid,
                max(record.query_id for record in recovered.arrivals) + 1,
            )
        # Stream time continues from the crashed run's frontier; restored
        # events already behind ``now`` are overdue and pop in a burst.
        self._logical_now = max(self._logical_now, recovered.timeline.now)
        self.clock = WallClock(
            seconds_per_minute=self.config.seconds_per_minute,
            start_at=self._logical_now,
            timeline=recovered.timeline,
        )
        self.session.clock = self.clock
        self._journal = JournalWriter(
            self._journal_path,
            fsync_every=self.config.journal_fsync_every,
            truncate_to=recovered.valid_bytes,
        )
        self._book = JournalObserver(
            self._journal, recovered.ledgers,
            pops=recovered.pops, digest=recovered.digest,
        )
        self.resumed_at_pops = recovered.pops
        self.tracer.emit(events.RESUME, "journal", pops=recovered.pops)
        self._journal.sync()

    def _restore_extra(self, extra: dict, pops: int) -> None:
        self._next_qid = int(extra.get("next_qid", self._next_qid))
        for qid, payload in extra.get("results", {}).items():
            self.results[int(qid)] = payload
        for time, kind, subject, detail in extra.get("trace", []):
            if kind in events.ALERT_KINDS:
                continue  # the monitor regenerates alerts from the stream
            self._logical_now = time
            self.tracer.emit(kind, subject, **detail)
        self._logical_now = float(extra.get("logical_now", self._logical_now))

    # -- the service observing its own session -------------------------------

    def before_pop(self, session, now, tag, payload) -> None:
        # The logical clock moves first, so trace records the scheduler
        # emits *inside* handle() carry the pop's time.
        self._logical_now = max(self._logical_now, now)

    def after_pop(self, session, now, tag, payload, outcome, ledger) -> None:
        if tag == "arrival":
            decision = self._decision_futures.pop(payload, None)
            if decision is not None and not decision.done():
                decision.set_result(outcome)
            if outcome == "shed":
                self._finish(payload, {
                    "qid": payload,
                    "query": session.workload.query(payload).name,
                    "outcome": "shed",
                })
        elif ledger is not None:
            self._finish(payload, {
                "qid": payload,
                "query": ledger.query,
                "outcome": "completed",
                "iv": ledger.reported_iv,
                "cl": ledger.computational_latency,
                "sl": ledger.synchronization_latency,
                "submitted_at": ledger.submitted_at,
                "completed_at": ledger.completed_at,
                "ledger": ledger.to_dict(),
            })

    def _finish(self, qid: int, payload: dict) -> None:
        self.results[qid] = payload
        future = self._result_futures.pop(qid, None)
        if future is not None and not future.done():
            future.set_result(payload)

    # -- introspection -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The live registry's snapshot at the current logical time."""
        return self.registry.snapshot(self._logical_now)

    def metrics_prometheus(self) -> str:
        """The same snapshot in Prometheus text exposition format 0.0.4."""
        from repro.obs.metrics import to_prometheus

        return to_prometheus(self.metrics_snapshot())

    def status_html(self) -> str:
        """The live status page (dashboard renderer over the registry)."""
        from repro.reporting.dashboard import live_report_html

        alerts = self.monitor.alerts if self.monitor is not None else []
        return live_report_html(
            [self.metrics_snapshot()], alerts,
            title="repro serve — live status",
        )

    def check_trace(self) -> list[Violation]:
        """Run the TraceChecker over everything traced so far."""
        from repro.obs.checker import TraceChecker

        return TraceChecker().check(self.tracer.records)

    def replay(self) -> OnlineSession:
        """Re-run the recorded arrival trace under a :class:`SimClock`.

        Builds a fresh tracer-less scheduler over the same federation and
        a workload carrying the recorded arrival stamps, then replays the
        arrival log at its recorded heap positions.  The returned
        session's ``decisions`` must equal this service's — the
        clock-equivalence contract behind the whole Clock seam.
        """
        scheduler = OnlineMQOScheduler(
            self.scheduler.catalog,
            self.scheduler.cost_provider,
            self.scheduler.default_rates,
            ga_config=self.scheduler.ga_config,
            seed=self.scheduler.seed,
            max_candidates=self.scheduler.max_candidates,
            tracer=None,
            config=self.scheduler.config,
        )
        workload = Workload()
        for record in self.arrival_log:
            workload.add(
                self.workload.query(record.query_id), arrival=record.time
            )
        return replay_decisions(scheduler, workload, self.arrival_log)
