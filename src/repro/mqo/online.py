"""Online MQO: rolling-window scheduling of a live query stream.

The paper's MQO (Section 3.2) optimizes a workload it holds in hand; its
own premise — near real-time BI over continuously refreshed replicas —
means queries actually *arrive over time*.  This module closes that gap
with an event-driven scheduler that keeps the batch machinery (conflict
groups, GA ordering, the analytic evaluator) but applies it repeatedly to
a moving frontier:

* **Admission** — an arriving query is admitted to a bounded pending
  queue; if its IV *upper bound* (best case over every candidate plan,
  any availability) is already below ``iv_floor`` it is **shed** — it can
  never pay for its seat.  When the queue is full the query is
  **deferred** and re-queued at the next window close.
* **Rolling re-optimization** — each time the window closes or a running
  query completes (and the pending set changed since the last pass), the
  not-yet-started queries are re-grouped into conflict groups and each
  group's order is re-optimized by the GA, **warm-started** from the
  previous pass's best permutation (an extra seed chromosome) so
  convergence cost amortizes across windows.  The window ticks only while
  something is pending; an arrival wakes it on the same lattice.
* **Dispatch** — the head of the optimized plan is realized against
  committed server state and started, but only once no earlier event
  (arrival, window, completion) could still change the plan; completions
  feed back into the event clock.

The loop itself is **clock-agnostic**: all state and event handling live
in :class:`OnlineSession`, which only talks to the
:class:`~repro.sim.clocks.Clock` protocol.  :meth:`OnlineMQOScheduler.run`
drives a session from a :class:`~repro.sim.clocks.SimClock` (deterministic
replay of a workload's arrival stream — the batch-equivalent path every
committed number rests on), while ``repro.serve`` drives the *same*
session from a :class:`~repro.sim.clocks.WallClock` under asyncio, with
arrivals pushed live by HTTP submissions.  :func:`replay_decisions`
re-runs a recorded wall arrival trace through a ``SimClock`` and, by
construction, reproduces the wall run's admit/shed/dispatch decision
sequence exactly (``tests/test_clock_equivalence.py``).

**One driver.**  Every popped event reaches a session through
:func:`step`, and every sim-clock driver is :func:`drive`, which pops the
clock dry; pending work always has a window in the clock, so a dry clock
is a finished run.  What a driver records besides the decisions is a
:class:`SessionObserver`: :class:`LifecycleTrace` writes the
per-query trace the checker audits, ``repro.durable`` journals, and
``repro.serve`` resolves its result futures — each a sink of the same
event sequence, handed every completion's ledger entry (built once, and
only when observed).

Batch MQO is this loop with one window: with admission disabled
(``iv_floor=0``, a queue that fits the whole stream, ``eager_start=False``)
and one window spanning all arrivals, exactly one pass runs over the full
workload, and :meth:`WorkloadScheduler.schedule` is defined as that run
(``tests/test_mqo_online_properties.py`` holds it bit-identical to the
batch-loop oracle in ``tests/mqo_batch_oracle.py``).
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import asdict, dataclass, field

from repro.core.enumeration import CostProvider
from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog
from repro.mqo.conflict import ExecutionRange, IncrementalConflictGroups
from repro.mqo.evaluator import (
    Assignment,
    EvaluationResult,
    EvaluatorStats,
    WorkloadEvaluator,
)
from repro.mqo.ga import GAConfig, GeneticAlgorithm
from repro.obs import events
from repro.obs.ledger import IVLedgerEntry, completion_ledger
from repro.sim.clocks import Clock, SimClock

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.sim.trace import Tracer
    from repro.workload.query import DSSQuery, Workload

__all__ = [
    "OnlineConfig",
    "OnlineStats",
    "WindowRecord",
    "OnlineDecision",
    "OnlineSession",
    "OnlineMQOScheduler",
    "ArrivalRecord",
    "SessionObserver",
    "LifecycleTrace",
    "step",
    "drive",
    "finish",
    "replay_decisions",
]

#: Spacing of GA seeds between optimization passes.  A prime stride keeps
#: pass ``k``'s group seeds (``seed + k*stride + group``) disjoint from
#: pass ``k+1``'s for any realistic group count; the first pass seeds
#: ``seed + group``, as the batch loop always did.
_PASS_SEED_STRIDE = 7919


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online scheduling loop."""

    #: Rolling re-optimization period (minutes of stream time).
    window: float = 5.0
    #: Bound on the pending queue (admitted + planned, not yet started).
    max_pending: int = 64
    #: Admission floor: shed a query whose IV upper bound is below this.
    iv_floor: float = 0.0
    #: Optimize immediately when a query arrives to an idle system rather
    #: than waiting for the window to close (cuts idle latency; batch MQO
    #: runs with it off).
    eager_start: bool = True

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise OptimizationError(f"window must be > 0, got {self.window}")
        if self.max_pending < 1:
            raise OptimizationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.iv_floor < 0:
            raise OptimizationError(
                f"iv_floor must be >= 0, got {self.iv_floor}"
            )


@dataclass
class OnlineStats:
    """Counters of one online run (numeric fields feed ``repro.obs`` metrics)."""

    submitted: int = 0    #: queries seen on the arrival stream
    admitted: int = 0     #: queries accepted into the pending queue
    shed: int = 0         #: queries rejected by the IV floor
    deferred: int = 0     #: arrivals parked because the queue was full
    requeued: int = 0     #: deferred queries later admitted at a window
    dispatched: int = 0   #: queries started (each exactly once)
    windows: int = 0      #: re-optimization passes run
    ga_runs: int = 0      #: GA invocations across all passes
    warm_seeds: int = 0   #: GA runs seeded with the previous incumbent
    reopt_seconds: float = 0.0  #: wall-clock spent re-optimizing


@dataclass(slots=True)
class WindowRecord:
    """One re-optimization pass (the audit trail behind ``MQO_WINDOW``).

    Read-only by convention (not ``frozen``: one is built per pass, and a
    frozen dataclass constructs through ``object.__setattr__`` per field).
    """

    index: int
    time: float            #: stream time the pass ran at
    trigger: str           #: "window" | "completion" | "idle"
    pending: int           #: not-yet-started queries optimized over
    groups: int            #: conflict groups formed this pass
    order: tuple[int, ...]  #: the pass's decided dispatch order
    ga_runs: int
    warm_seeded: int
    reopt_seconds: float


@dataclass
class OnlineDecision:
    """The output of an online run — and of batch MQO, which is one."""

    result: EvaluationResult
    shed: list[int] = field(default_factory=list)
    windows: list[WindowRecord] = field(default_factory=list)
    stats: OnlineStats = field(default_factory=OnlineStats)
    evaluator_stats: EvaluatorStats | None = None

    @property
    def total_information_value(self) -> float:
        """Total realized IV of the executed (non-shed) queries."""
        return self.result.total_information_value

    @property
    def mean_information_value(self) -> float:
        """Mean realized IV over executed queries."""
        return self.result.mean_information_value

    @property
    def permutation(self) -> list[int]:
        """The realized dispatch order."""
        return [a.query.query_id for a in self.result.assignments]


def _encode_decision(entry: tuple) -> list:
    """JSON-safe form of one decision-log tuple."""
    return [list(part) if isinstance(part, tuple) else part for part in entry]


def _decode_decision(entry: list) -> tuple:
    """Inverse of :func:`_encode_decision` (nested lists become tuples)."""
    return tuple(
        tuple(part) if isinstance(part, list) else part for part in entry
    )


@dataclass(frozen=True)
class ArrivalRecord:
    """One recorded live arrival: who, when, and *between which events*.

    ``pops_before`` is the number of clock events the serving loop had
    already popped when this arrival was pushed — the piece of ordering
    information a bare timestamp cannot carry (a submission can land
    while the loop is still catching up on overdue deadlines).  Replaying
    a trace pushes each arrival at exactly that position, so the replayed
    heap evolves identically to the live one.
    """

    query_id: int
    time: float
    pops_before: int


class OnlineSession:
    """Clock-agnostic state of one online scheduling run.

    All admission/shed/window/dispatch logic lives here; the only moving
    part a driver supplies is the :class:`~repro.sim.clocks.Clock` events
    come from.  Drivers feed popped events to :meth:`handle` through
    :func:`step`; the session pushes its own follow-on events (window
    reschedules, analytic completions) back into the same clock.

    ``decisions`` is the run's decision log — one tuple per admission
    verdict, re-optimization pass and dispatch — and is the object the
    sim-vs-wall clock-equivalence property compares.
    """

    def __init__(
        self,
        scheduler: "OnlineMQOScheduler",
        workload: "Workload",
        clock: Clock,
        selections: "dict[int, tuple] | None" = None,
    ) -> None:
        self.scheduler = scheduler
        self.workload = workload
        self.clock = clock
        self.config = scheduler.config
        self.evaluator = WorkloadEvaluator(
            scheduler.catalog,
            scheduler.cost_provider,
            scheduler.default_rates,
            workload,
            max_candidates=scheduler.max_candidates,
            selections=selections,
        )
        self.stats = OnlineStats()
        self.decision = OnlineDecision(
            result=EvaluationResult(), stats=self.stats,
            evaluator_stats=self.evaluator.stats,
        )
        self.queue: list[int] = []         # admitted, awaiting optimization
        self.plan: deque[int] = deque()    # optimized dispatch order
        self.deferred: deque[int] = deque()  # queue-overflow parking lot
        #: Execution ranges of every pending (admitted, not yet started)
        #: query, grouped incrementally — the per-window sweep replacement.
        self.group_index = IncrementalConflictGroups()
        self.running: set[int] = set()
        self.free_at: dict[int, float] = {}
        self.incumbent: list[int] = []  # previous pass's order (warm start)
        self.dirty = False              # pending set changed since last pass
        self.pass_serial = 0
        #: The rolling window's next lattice point (``None`` until the
        #: first arrival starts the chain) and whether it is in the clock.
        self.next_window: float | None = None
        self.ticking = False
        #: Dispatched assignments by query id (completion ledgers are
        #: built against this).
        self.started: dict[int, Assignment] = {}
        #: The decision log: ("admit"|"shed"|"defer"|"requeue", qid),
        #: ("window", trigger, order) and ("start", qid, begin, completed).
        self.decisions: list[tuple] = []

    # -- small helpers -----------------------------------------------------

    def _emit(self, kind: str, subject: str, **details) -> None:
        tracer = self.scheduler.tracer
        if tracer is not None:
            tracer.emit(kind, subject, **details)

    def _pending_ids(self) -> list[int]:
        return [*self.plan, *self.queue]

    def _admit_room(self) -> bool:
        return len(self.plan) + len(self.queue) < self.config.max_pending

    def _track(self, qid: int) -> None:
        """Admit a query's execution range into the incremental index."""
        start, end = self.evaluator.range_of(qid)
        self.group_index.add(ExecutionRange(qid, start, end))

    def pending(self) -> int:
        """Admitted or deferred queries that have not started."""
        return len(self.queue) + len(self.deferred) + len(self.plan)

    def push_arrivals(self) -> list["DSSQuery"]:
        """Push the workload's whole arrival stream, in arrival order (the
        sim drivers' up-front stream); returns the queries pushed."""
        workload = self.workload
        ordered = workload.sorted_by_arrival()
        for query in ordered:
            self.clock.push(
                workload.arrival_of(query.query_id), "arrival", query.query_id
            )
        return ordered

    def completion_ledger(
        self, qid: int, completed_at: float
    ) -> IVLedgerEntry:
        """The IV ledger entry of a started query completing at
        ``completed_at`` — the event's pop time, which is at or after the
        analytic completion when dispatch ran late."""
        assignment = self.started[qid]
        query = self.workload.query(qid)
        return completion_ledger(
            query.name, qid, query.business_value, assignment.rates,
            submitted_at=self.workload.arrival_of(qid),
            begin=assignment.begin,
            completed_at=completed_at,
            data_timestamp=assignment.data_timestamp,
        )

    # -- durable snapshots -------------------------------------------------

    def capture_state(self) -> dict:
        """A JSON-safe snapshot of every field the scheduling logic reads.

        The evaluator is deliberately *not* captured: it is a
        deterministic cache rebuilt from the scheduler's seed and rebased
        on ``free_at`` at the top of every optimization pass, so a fresh
        evaluator over a restored session reproduces decisions bit-for-bit
        (the PR 1 fast-path contract).  Dispatched assignments persist as
        minimal stand-ins — rates and timestamps — which is everything
        completion handling and IV accounting ever read back.
        """

        def assignment_state(assignment: Assignment) -> dict:
            return {
                "qid": assignment.query.query_id,
                "arrival": assignment.arrival,
                "begin": assignment.begin,
                "completed": assignment.completed,
                "data_timestamp": assignment.data_timestamp,
                "lambda_cl": assignment.rates.computational,
                "lambda_sl": assignment.rates.synchronization,
            }

        windows = []
        for record in self.decision.windows:
            window = asdict(record)
            window["order"] = list(record.order)
            windows.append(window)
        return {
            "queue": list(self.queue),
            "plan": list(self.plan),
            "deferred": list(self.deferred),
            "running": sorted(self.running),
            "free_at": {str(site): at for site, at in self.free_at.items()},
            "incumbent": list(self.incumbent),
            "dirty": self.dirty,
            "pass_serial": self.pass_serial,
            "next_window": self.next_window,
            "ticking": self.ticking,
            "stats": asdict(self.stats),
            "shed": list(self.decision.shed),
            "windows": windows,
            "decisions": [
                _encode_decision(entry) for entry in self.decisions
            ],
            "dispatch_order": [
                assignment.query.query_id
                for assignment in self.decision.result.assignments
            ],
            "started": {
                str(qid): assignment_state(assignment)
                for qid, assignment in self.started.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild this session exactly as :meth:`capture_state` saw it.

        The session's workload must already contain every query the
        captured run had admitted or dispatched (recovery rebuilds it from
        the journal's arrival records before restoring).
        """
        self.queue = [int(qid) for qid in state["queue"]]
        self.plan = deque(int(qid) for qid in state["plan"])
        self.deferred = deque(int(qid) for qid in state["deferred"])
        self.group_index = IncrementalConflictGroups()
        for qid in [*self.plan, *self.queue]:
            self._track(qid)
        self.running = {int(qid) for qid in state["running"]}
        self.free_at = {
            int(site): float(at) for site, at in state["free_at"].items()
        }
        self.incumbent = [int(qid) for qid in state["incumbent"]]
        self.dirty = bool(state["dirty"])
        self.pass_serial = int(state["pass_serial"])
        self.next_window = state["next_window"]
        self.ticking = bool(state["ticking"])
        self.stats = OnlineStats(**state["stats"])
        self.decisions = [
            _decode_decision(entry) for entry in state["decisions"]
        ]
        self.started = {}
        for qid_text, data in state["started"].items():
            qid = int(qid_text)
            # A started assignment is only ever read back for its rates
            # and timestamps (ledger synthesis at completion), so the
            # chosen candidate is not persisted.
            self.started[qid] = Assignment(
                query=self.workload.query(qid),
                candidate=None,
                rates=DiscountRates(data["lambda_cl"], data["lambda_sl"]),
                arrival=data["arrival"],
                begin=data["begin"],
                completed=data["completed"],
                data_timestamp=data["data_timestamp"],
            )
        self.decision = OnlineDecision(
            result=EvaluationResult(assignments=[
                self.started[int(qid)] for qid in state["dispatch_order"]
            ]),
            shed=[int(qid) for qid in state["shed"]],
            windows=[
                WindowRecord(**{**window, "order": tuple(window["order"])})
                for window in state["windows"]
            ],
            stats=self.stats,
            evaluator_stats=self.evaluator.stats,
        )

    # -- event handling ----------------------------------------------------

    def handle(self, now: float, tag: str, payload: "int | None") -> str | None:
        """Process one popped clock event; returns the admission outcome
        (``"admitted" | "shed" | "deferred"``) for arrival events.

        ``payload`` is the query id of an arrival or completion, ``None``
        for a window."""
        outcome: str | None = None
        if tag == "arrival":
            if not self.ticking:
                self._wake(now)
            outcome = self.submit(payload, now)
        elif tag == "window":
            self._release_deferred()
            if self.dirty and (self.plan or self.queue):
                self._optimize(now, "window")
            self.next_window = now + self.config.window
            self.ticking = self.pending() > 0
            if self.ticking:
                self.clock.push(self.next_window, "window", None)
        elif tag == "completion":
            self.running.discard(payload)
            self._release_deferred()
            if self.dirty and (self.plan or self.queue):
                self._optimize(now, "completion")
        else:
            raise OptimizationError(f"unknown clock event tag {tag!r}")
        self.dispatch(now)
        return outcome

    def _wake(self, now: float) -> None:
        """Push the window at the first lattice point at or after ``now``,
        stepping by ``+ window`` as a chain that never slept would."""
        window = self.config.window
        at = now + window if self.next_window is None else self.next_window
        while at < now:
            at += window
        self.next_window = at
        self.ticking = True
        self.clock.push(at, "window", None)

    def submit(self, qid: int, now: float) -> str:
        """Admission control for one arrival (shed / defer / admit)."""
        query = self.workload.query(qid)
        self.stats.submitted += 1
        bound = self.evaluator.upper_bound(qid)
        if bound < self.config.iv_floor:
            self.decision.shed.append(qid)
            self.stats.shed += 1
            self.decisions.append(("shed", qid))
            self._emit(
                events.MQO_SHED, query.name,
                qid=qid, bound=bound, floor=self.config.iv_floor,
            )
            return "shed"
        if not self._admit_room():
            self.deferred.append(qid)
            self.stats.deferred += 1
            self.decisions.append(("defer", qid))
            return "deferred"
        self.queue.append(qid)
        self._track(qid)
        self.stats.admitted += 1
        self.dirty = True
        self.decisions.append(("admit", qid))
        self._emit(events.MQO_ADMIT, query.name, qid=qid, requeued=False)
        if (
            self.config.eager_start
            and self.dirty
            and not self.running
            and not self.plan
        ):
            self._optimize(now, "idle")
        return "admitted"

    def _release_deferred(self) -> None:
        while self.deferred and self._admit_room():
            qid = self.deferred.popleft()
            self.queue.append(qid)
            self._track(qid)
            self.stats.requeued += 1
            self.stats.admitted += 1
            self.dirty = True
            self.decisions.append(("requeue", qid))
            self._emit(
                events.MQO_ADMIT, self.workload.query(qid).name,
                qid=qid, requeued=True,
            )

    def _optimize(self, now: float, trigger: str) -> None:
        pending = self._pending_ids()
        # Re-optimization cost is timed through the clock so each time
        # domain books it exactly once: SimClock reads ``perf_counter``
        # (real seconds outside the simulated stream, as before), while
        # WallClock reads the same monotonic base that drives stream time
        # — the cost is a *slice* of the stream, never double-counted.
        began = self.clock.perf_seconds()
        workload = self.workload
        evaluator = self.evaluator
        evaluator.rebase(self.free_at)
        groups = self.group_index.groups()
        # Stable sort: ties keep pending order, which on the first pass
        # is admission order — ``Workload.sorted_by_arrival``'s
        # tie-breaking.
        arrival_order = sorted(pending, key=workload.arrival_of)
        group_orders: dict[int, list[int]] = {}
        ga_runs = 0
        warm_seeded = 0
        for index, group in enumerate(groups):
            if len(group) < 2:
                group_orders[index] = list(group)
                continue
            group_set = set(group)
            seeds = [
                [qid for qid in arrival_order if qid in group_set]
            ]
            carried = [qid for qid in self.incumbent if qid in group_set]
            if len(carried) >= 2:
                # Warm start: members carried over from the previous
                # pass keep their decided relative order; members new
                # to this pass append in arrival order.
                carried_set = set(carried)
                warm = carried + [
                    qid for qid in seeds[0] if qid not in carried_set
                ]
                if warm != seeds[0]:
                    seeds.append(warm)
                    warm_seeded += 1
                    self.stats.warm_seeds += 1
            ga = GeneticAlgorithm(
                genes=group,
                fitness=evaluator.sequence_fitness,
                config=self.scheduler.ga_config,
                seed=(
                    self.scheduler.seed
                    + self.pass_serial * _PASS_SEED_STRIDE
                    + index
                ),
            )
            outcome = ga.run(seed_chromosomes=seeds)
            group_orders[index] = outcome.best
            ga_runs += 1
            self.stats.ga_runs += 1
        ordered_groups = sorted(
            range(len(groups)),
            key=lambda index: min(
                workload.arrival_of(qid) for qid in groups[index]
            ),
        )
        new_plan: list[int] = []
        for index in ordered_groups:
            new_plan.extend(group_orders[index])
        elapsed = self.clock.perf_seconds() - began
        self.plan.clear()
        self.plan.extend(new_plan)
        self.queue.clear()
        self.incumbent = list(new_plan)
        self.dirty = False
        record = WindowRecord(
            index=len(self.decision.windows),
            time=now,
            trigger=trigger,
            pending=len(pending),
            groups=len(groups),
            order=tuple(new_plan),
            ga_runs=ga_runs,
            warm_seeded=warm_seeded,
            reopt_seconds=elapsed,
        )
        self.decision.windows.append(record)
        self.stats.windows += 1
        self.stats.reopt_seconds += elapsed
        self.pass_serial += 1
        self.decisions.append(("window", trigger, tuple(new_plan)))
        self._emit(
            events.MQO_WINDOW, f"window:{record.index}",
            index=record.index, trigger=trigger,
            pending=record.pending, groups=record.groups,
            order=list(record.order),
        )

    def dispatch(self, now: float) -> None:
        # Start plan heads whose begin precedes every event that could
        # still change the plan; realization is a pure function of the
        # order and committed state, so *when* we commit is irrelevant
        # to the schedule — only re-optimization opportunities matter.
        while self.plan:
            assignment = self.evaluator.choose_best(self.plan[0], self.free_at)
            if self.clock and assignment.begin > self.clock.peek_time():
                break
            qid = self.plan.popleft()
            self.group_index.remove(qid)
            self.evaluator._commit(assignment, self.free_at)
            # A started query is never planned again: keep its range and
            # bound, drop its candidate records.
            self.evaluator.evict(qid)
            self.decision.result.assignments.append(assignment)
            self.running.add(qid)
            self.stats.dispatched += 1
            self.started[qid] = assignment
            self.decisions.append(
                ("start", qid, assignment.begin, assignment.completed)
            )
            self.clock.push(
                max(assignment.completed, now), "completion", qid
            )


# -- the driver ---------------------------------------------------------------


class SessionObserver:
    """A sink of the event sequence a driver feeds an :class:`OnlineSession`.

    Every method is a no-op an observer may override.  Observers run in
    list order, so a later one sees everything an earlier one emitted.
    """

    def before_pop(self, session, now, tag, payload) -> None:
        """Called before ``session`` handles the popped event."""

    def after_pop(self, session, now, tag, payload, outcome, ledger) -> None:
        """Called after it, with the admission ``outcome`` of an arrival
        and the IV ``ledger`` entry of a completion (else ``None``)."""

    def finish(self, session) -> None:
        """Called once, after the driver popped the clock dry."""


class LifecycleTrace(SessionObserver):
    """Traces every query's lifecycle on ``tracer`` — the records the
    :class:`~repro.obs.checker.TraceChecker` audits.

    ``submit`` + ``plan`` for each arrival that was not shed (a shed query
    never enters the system), ``exec.start`` for each new ``start``
    decision, and ``complete`` + ``ledger`` for each completion.  The
    scheduler's own tracer already carries the admission and window events
    ``handle`` emits, so the trace reads pop → handle → submit/plan →
    exec.start (one per start) → complete/ledger.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        #: Decision-log entries already traced; set at the first pop, so a
        #: session restored from a snapshot is not traced twice.
        self.cursor: int | None = None

    def before_pop(self, session, now, tag, payload) -> None:
        if self.cursor is None:
            self.cursor = len(session.decisions)

    def after_pop(self, session, now, tag, payload, outcome, ledger) -> None:
        tracer = self.tracer
        workload = session.workload
        if tag == "arrival" and outcome != "shed":
            name = workload.query(payload).name
            tracer.emit(events.SUBMIT, name, qid=payload)
            tracer.emit(
                events.PLAN, name,
                qid=payload, est_iv=session.evaluator.upper_bound(payload),
            )
        decisions = session.decisions
        for entry in decisions[self.cursor:]:
            if entry[0] == "start":
                qid = entry[1]
                tracer.emit(
                    events.EXEC_START, workload.query(qid).name,
                    qid=qid, begin=entry[2],
                )
        self.cursor = len(decisions)
        if ledger is not None:
            tracer.emit(
                events.COMPLETE, ledger.query,
                qid=payload, iv=ledger.reported_iv,
                cl=ledger.computational_latency,
                sl=ledger.synchronization_latency,
            )
            tracer.emit(events.LEDGER, ledger.query, **ledger.to_dict())


def step(
    session: OnlineSession, now: float, tag: str, payload,
    observers: "Sequence[SessionObserver]" = (),
) -> str | None:
    """Handle one popped event — the one place a session does — and show
    it to ``observers``; returns :meth:`OnlineSession.handle`'s outcome.

    A completion's ledger entry is built only when someone observes it.
    """
    for observer in observers:
        observer.before_pop(session, now, tag, payload)
    outcome = session.handle(now, tag, payload)
    if observers:
        ledger = (
            session.completion_ledger(payload, now)
            if tag == "completion" else None
        )
        for observer in observers:
            observer.after_pop(session, now, tag, payload, outcome, ledger)
    return outcome


def finish(
    session: OnlineSession, observers: "Sequence[SessionObserver]" = ()
) -> None:
    """End a run whose clock is dry: ``finish`` every observer.  Pending
    work always has a window in the clock, so any left is an error."""
    if session.pending():
        raise OptimizationError(
            f"{session.pending()} queries are pending but the clock is "
            f"empty: no window will ever plan them"
        )
    for observer in observers:
        observer.finish(session)


def drive(
    session: OnlineSession,
    clock: Clock,
    observers: "Sequence[SessionObserver]" = (),
    arrivals: "Sequence[ArrivalRecord] | None" = None,
) -> None:
    """Pop ``clock`` dry through :func:`step`, then :func:`finish`.

    ``arrivals`` are pushed at their recorded heap positions: each once
    this loop has popped ``pops_before`` events, after the handler's own
    pushes from that pop — the order a live loop's pushes landed in, so
    heap tie-breaking by sequence number replays exactly.
    """
    arrivals = arrivals or ()
    pushed = 0
    pops = 0
    while True:
        while pushed < len(arrivals) and arrivals[pushed].pops_before <= pops:
            record = arrivals[pushed]
            clock.push(record.time, "arrival", record.query_id)
            pushed += 1
        if not clock:
            break
        now, tag, payload = clock.pop()
        pops += 1
        step(session, now, tag, payload, observers)
    finish(session, observers)


class OnlineMQOScheduler:
    """Rolling-window MQO over a query arrival stream."""

    def __init__(
        self,
        catalog: Catalog,
        cost_provider: CostProvider,
        default_rates: DiscountRates,
        ga_config: GAConfig | None = None,
        seed: int = 0,
        max_candidates: int = 64,
        tracer: "Tracer | None" = None,
        config: OnlineConfig | None = None,
    ) -> None:
        self.catalog = catalog
        self.cost_provider = cost_provider
        self.default_rates = default_rates
        self.ga_config = ga_config or GAConfig()
        self.seed = seed
        self.max_candidates = max_candidates
        self.tracer = tracer
        self.config = config or OnlineConfig()

    def session(
        self,
        workload: "Workload",
        clock: Clock,
        selections: "dict[int, tuple] | None" = None,
    ) -> OnlineSession:
        """A fresh clock-agnostic session over ``workload``.

        ``selections`` are per-query candidate selections made ahead of the
        run (:meth:`WorkloadEvaluator.range_of`'s ``ship``); the session's
        evaluator consumes them instead of selecting again.
        """
        return OnlineSession(self, workload, clock, selections)

    # -- the event loop ----------------------------------------------------

    def run(
        self,
        workload: "Workload",
        selections: "dict[int, tuple] | None" = None,
    ) -> OnlineDecision:
        """Replay the workload's arrival stream through the online loop
        (``selections`` as for :meth:`session`)."""
        if len(workload) == 0:
            raise OptimizationError("cannot schedule an empty workload")
        clock = SimClock()
        session = self.session(workload, clock, selections)
        session.push_arrivals()
        drive(session, clock)
        return session.decision


def replay_decisions(
    scheduler: OnlineMQOScheduler,
    workload: "Workload",
    arrivals: "Sequence[ArrivalRecord]",
) -> OnlineSession:
    """Replay a recorded live arrival trace through a :class:`SimClock`.

    ``workload`` must contain every recorded query with its live arrival
    time; ``arrivals`` is the service's :class:`ArrivalRecord` log.  Each
    arrival is pushed only once the replayed loop has popped as many
    events as the live loop had when the submission landed, so the
    replayed heap — and therefore every admission, window and dispatch
    decision — evolves exactly as the wall run's did.  The rolling window
    is a function of the session's own state, so nothing about the live
    driver beyond its arrivals needs recording.

    Returns the finished session; compare its ``decisions`` against the
    live one's.
    """
    clock = SimClock()
    session = scheduler.session(workload, clock)
    drive(session, clock, arrivals=arrivals)
    return session
