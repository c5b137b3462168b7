"""Deterministic workload evaluation — the GA's fitness function.

Section 3.2: "An important GA component is the evaluation function.  Given
a particular chromosome representing one workload permutation, the function
deterministically calculates the information value of a given workload
execution order."

The evaluator replays a permutation analytically (no discrete-event run):
it tracks when each server (local DSS server and every remote site) becomes
free, and for each query — in permutation order — picks the candidate plan
with the best *realized* IV given those availabilities, then commits the
plan's resource usage.  Candidate plans per query are derived once and
cached (gather combos at the arrival instant and at scheduled sync points
within the scatter bound); :func:`repro.core.enumeration.enumerate_plans`
is the single-query optimizer's enumeration and this module's test oracle.

Because this is the GA's inner loop, the one code path is layered for
speed while producing bit-identical results to the straightforward
replay — realize every candidate against the catalog, keep the first
strict IV maximum — which lives in ``tests/mqo_naive_oracle.py`` as the
test oracle:

* **Compile once per shape, lower each arrival once** — Section 3.1's
  combos are "compiled only once and in advance": everything about a query
  except its arrival instant (replicated/base-only split, the all-base
  incumbent and the tolerable delay it implies, each table-location
  combo's cost floats, involved sites, commit legs and replica timelines)
  is built once per *shape* (:class:`_Shape`, :class:`_Combo`).  An
  arrival is then **lowered** in two steps.  *Select*: bisect the
  replicas' live sync-completion arrays for the start instants inside the
  tolerable window, rank replicas by staleness at each, estimate each
  ``(start, combo)``'s IV in :attr:`QueryPlan.information_value`'s exact
  expression order, sort, cut to ``max_candidates``.  *Records*: each
  survivor becomes one flat tuple (fields ``_SUFFIX_BOUND … _PLAN_CELL``)
  the candidate loop unpacks whole — realizing it is float arithmetic plus
  a bisect per replica read, no ``Catalog`` or ``Replica`` call — carrying
  its own IV upper bound and the maximum over every later candidate's, so
  the loop stops once no remaining plan can beat the incumbent.  A
  selection is plain data, ``((start, remote tables), …)``: an evaluator
  that needs only ranges selects and ships it
  (:meth:`WorkloadEvaluator.range_of`), and the evaluator handed it as
  ``selections`` builds the records without selecting again.
  :class:`QueryPlan` objects are materialised only on request
  (:attr:`Assignment.plan`, :meth:`WorkloadEvaluator.candidates`), and
  :meth:`WorkloadEvaluator.evict` drops a dispatched query's records,
  keeping the three floats :meth:`~WorkloadEvaluator.range_of` and
  :meth:`~WorkloadEvaluator.upper_bound` serve.
* **Score, don't realize, in one frame** — the GA needs a number per
  chromosome, so one private walk serves both entry points and scores
  every fresh position inside its own loop (``_advance``, the one copy of
  the candidate arithmetic, which ``choose_best`` also calls) on plain
  choice records ``(candidate, begin, completed, data timestamp)``:
  :meth:`WorkloadEvaluator.sequence_fitness` returns the running total
  and builds nothing; ``evaluate_sequence`` and ``choose_best`` turn
  choice records into :class:`Assignment` objects.
* **Dense clocks, prefix memoization** — every server has a slot (the
  local one slot 0, then each catalog table's site) and "when is each
  server free" is a flat list of clocks indexed by slot; a dict keyed by
  site id is the interchange format at the boundary only.  Order
  crossover and swap mutation produce children sharing long prefixes with
  their parents, so each walk caches its fresh positions as one
  path-compressed :class:`_Segment` (ids, flat clocks, totals, choice
  records) and resumes from the longest cached prefix.  A second memo,
  keyed on ``(query, clocks of that query's candidate slots)`` — all a
  choice depends on — serves dispatch only, which re-asks about one plan
  head under unchanged clocks.  Both caches are bounded: exceeding the
  entry cap resets them (a generational clear), so memory stays flat.
* **Observability** — an :class:`EvaluatorStats` struct counts prefix
  hits, resume depths, realize calls (actual vs. what a naive replay would
  have cost), pruned candidates, and the silent caps applied while
  enumerating candidates (24-hour horizon clamp, ``max_candidates`` cut).
"""

from __future__ import annotations

import typing
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from math import inf
from operator import itemgetter

from repro.core.enumeration import CostProvider, split_tables
from repro.core.plan import QueryPlan, TableVersion, VersionKind
from repro.core.value import DiscountRates, information_value, max_tolerable_latency
from repro.errors import OptimizationError
from repro.federation.catalog import LOCAL_SITE_ID, Catalog

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.federation.costmodel import ComboCost
    from repro.workload.query import DSSQuery, Workload

__all__ = [
    "Assignment",
    "EvaluationResult",
    "EvaluatorStats",
    "WorkloadEvaluator",
]

#: Lookahead cap while enumerating candidate start times (minutes).
CANDIDATE_HORIZON_CAP = 24 * 60.0

#: Safety factor on compiled IV upper bounds: libm ``pow`` is only
#: correct to ~1 ulp, so inflate bounds slightly to keep pruning exact.
_BOUND_SLACK = 1.0 + 1e-9

#: How far past a requested instant compiled timelines extend, so repeated
#: nearby lookups rarely re-enter the (slow) schedule-extension path.
_TIMELINE_SLACK = 64.0

#: Bound on the staleness orders one shape memoises gather combos for.
_MAX_STALENESS_ORDERS = 1024

#: Sort key of a lowering entry ``(estimated IV, start, combo, completed)``.
_ESTIMATE = itemgetter(0)


#: Field positions of a candidate record: one candidate of one arrival as
#: a flat tuple, so the candidate loop unpacks it in a single step.
#: ``suffix bound`` is the largest ``bound`` from this candidate to the end
#: of its list, ``bound`` the IV this candidate can never exceed under any
#: server availability, ``start`` its start instant (never before the
#: arrival); then its combo's compiled fields, the combo itself, and a
#: one-slot list caching the :class:`QueryPlan` once someone asks for it.
(
    _SUFFIX_BOUND, _BOUND, _START, _SITES, _PROCESSING, _TRANSMISSION,
    _TIMELINES, _HAS_BASE, _COMMIT_LEGS, _COMBO, _PLAN_CELL,
) = range(11)


def _candidate_plan(
    candidate: tuple, query: "DSSQuery", arrival: float, rates: DiscountRates
) -> QueryPlan:
    """A candidate record as a :class:`QueryPlan` (built once, then cached)."""
    cell = candidate[_PLAN_CELL]
    plan = cell[0]
    if plan is None:
        combo = candidate[_COMBO]
        start = candidate[_START]
        replica_reads = iter(combo.timelines)
        plan = cell[0] = QueryPlan(
            query=query,
            versions=tuple(
                TableVersion(name, VersionKind.BASE, start)
                if name in combo.remote_tables
                else TableVersion(
                    name, VersionKind.REPLICA,
                    next(replica_reads).freshness(start),
                )
                for name in query.tables
            ),
            submitted_at=arrival,
            start_time=start,
            cost=combo.cost,
            rates=rates,
        )
    return plan


@dataclass(slots=True)
class Assignment:
    """One query's realized execution inside a schedule (read-only by
    convention: ``frozen`` would construct through ``object.__setattr__``
    per field, and one is built per dispatch and evaluated position)."""

    query: "DSSQuery"
    #: The chosen candidate record; ``None`` on an assignment restored
    #: from a durable snapshot (only timestamps and rates are persisted).
    candidate: "tuple | None"
    rates: DiscountRates
    arrival: float
    begin: float
    completed: float
    data_timestamp: float

    @property
    def plan(self) -> QueryPlan:
        """The chosen plan, materialised on first use."""
        if self.candidate is None:
            raise OptimizationError(
                "an assignment restored from a snapshot carries no plan"
            )
        return _candidate_plan(
            self.candidate, self.query, self.arrival, self.rates
        )

    @property
    def computational_latency(self) -> float:
        """Realized CL under the schedule."""
        return self.completed - self.arrival

    @property
    def synchronization_latency(self) -> float:
        """Realized SL under the schedule."""
        return max(0.0, self.completed - self.data_timestamp)

    @property
    def information_value(self) -> float:
        """Realized IV under the schedule."""
        return information_value(
            self.query.business_value,
            self.computational_latency,
            self.synchronization_latency,
            self.rates,
        )


@dataclass
class EvaluationResult:
    """Realized schedule for one permutation."""

    assignments: list[Assignment] = field(default_factory=list)

    @property
    def total_information_value(self) -> float:
        """Sum of realized IVs (the workload objective, Section 3.2).

        An explicit left-to-right add: built-in ``sum`` compensates float
        addition from Python 3.12 on, which would make the last bit of a
        total — and every ``==`` against the evaluator's running total —
        depend on the interpreter.
        """
        total = 0.0
        for assignment in self.assignments:
            total += assignment.information_value
        return total

    @property
    def mean_information_value(self) -> float:
        """Mean realized IV."""
        if not self.assignments:
            return 0.0
        return self.total_information_value / len(self.assignments)

    @property
    def max_wait(self) -> float:
        """Largest begin-after-arrival wait (starvation indicator)."""
        return max((a.begin - a.arrival for a in self.assignments), default=0.0)


@dataclass
class EvaluatorStats:
    """Counters instrumenting the evaluation fast path.

    ``naive_realize_calls`` is what a from-scratch replay of every
    evaluated sequence would have cost (one realization per candidate per
    position); ``realize_calls`` is what the fast path actually performed.
    The gap decomposes into positions resumed from the prefix cache and
    candidates pruned by their IV upper bound.  ``choice_hits`` counts the
    dispatch probes :meth:`WorkloadEvaluator.choose_best`'s memo answered.
    """

    evaluations: int = 0
    realize_calls: int = 0
    naive_realize_calls: int = 0
    candidates_pruned: int = 0
    prefix_hits: int = 0
    prefix_queries_skipped: int = 0
    choice_hits: int = 0
    choice_evictions: int = 0
    resume_depths: dict[int, int] = field(default_factory=dict)
    trie_entries: int = 0
    trie_evictions: int = 0
    horizon_capped: int = 0
    candidate_plans_dropped: int = 0
    #: Shape skeletons built / arrivals selected (:meth:`_select` runs) —
    #: the work counters that catch an O(queries) compile regression.
    shapes: int = 0
    lowerings: int = 0

    @property
    def realize_calls_avoided(self) -> int:
        """Realizations a naive replay would have done but the fast path skipped."""
        return self.naive_realize_calls - self.realize_calls

    @property
    def realize_reduction_factor(self) -> float:
        """naive/actual realization ratio (``inf`` when nothing was realized)."""
        if self.realize_calls == 0:
            return float("inf") if self.naive_realize_calls else 1.0
        return self.naive_realize_calls / self.realize_calls

    def merge(self, other: "EvaluatorStats") -> None:
        """Accumulate another stats struct into this one (for reporting)."""
        for counter in fields(self):
            name = counter.name
            if name != "resume_depths":
                setattr(self, name, getattr(self, name) + getattr(other, name))
        for depth, count in other.resume_depths.items():
            self.resume_depths[depth] = self.resume_depths.get(depth, 0) + count

    def summary(self) -> str:
        """One-line digest for experiment output."""
        return (
            f"evaluations={self.evaluations} "
            f"realize_calls={self.realize_calls} "
            f"avoided={self.realize_calls_avoided} "
            f"(x{self.realize_reduction_factor:.1f}) "
            f"prefix_hits={self.prefix_hits} "
            f"choice_hits={self.choice_hits} "
            f"pruned={self.candidates_pruned} "
            f"horizon_capped={self.horizon_capped} "
            f"plans_dropped={self.candidate_plans_dropped}"
        )


class _CompiledTimeline:
    """One replica's sync completions as a raw sorted array + bisect.

    Mirrors ``Replica.freshness_at`` exactly: last completion ≤ t, falling
    back to the initial timestamp.  The array reference is live and
    append-only (see ``SyncSchedule.completions_through``); a coverage
    watermark keeps the rare schedule-extension call out of the hot loop.
    """

    __slots__ = ("replica", "name", "times", "initial", "covered")

    def __init__(self, replica) -> None:
        self.replica = replica
        self.name = replica.name
        self.initial = replica.initial_timestamp
        self.cover(0.0)

    def cover(self, time: float) -> None:
        """Materialise completions through ``time`` (plus slack)."""
        self.covered = time + _TIMELINE_SLACK
        self.times = self.replica.completions_through(self.covered)

    def freshness(self, time: float) -> float:
        if time > self.covered:
            self.cover(time)
        index = bisect_right(self.times, time)
        if index == 0:
            return self.initial
        return self.times[index - 1]


class _Combo:
    """One table-location combo of a shape, costed and resolved once."""

    __slots__ = (
        "remote_tables", "cost", "processing", "transmission", "total",
        "sites", "commit_legs", "timelines", "has_base", "initial_max",
    )

    def __init__(
        self,
        remote_tables: frozenset[str],
        cost: "ComboCost",
        timelines: tuple[_CompiledTimeline, ...],
        slots: dict[int, int],
    ) -> None:
        self.remote_tables = remote_tables
        self.cost = cost
        self.processing = cost.processing
        self.transmission = cost.transmission
        self.total = cost.total
        #: ``(slot, busy minutes past begin)`` per involved server: the
        #: local one (slot 0, which every combo runs through) first.
        self.commit_legs = ((0, cost.processing), *[
            (slots[site], cost.leg_minutes(site)) for site in cost.remote_sites
        ])
        #: Slots of the remote servers involved.
        self.sites = tuple([slot for slot, _minutes in self.commit_legs[1:]])
        #: One per replica version read, in the query's table order.
        self.timelines = timelines
        self.has_base = bool(remote_tables)
        #: Latest initial timestamp of a pure-replica combo (else ``None``):
        #: the one case where data can be stamped in the future of begin.
        self.initial_max = (
            max(t.initial for t in timelines)
            if timelines and not remote_tables
            else None
        )


class _Shape:
    """Everything about a query except its arrival instant.

    Queries with equal tables, work class, business value and rates share
    one shape.
    """

    __slots__ = (
        "rates", "business_value", "comp_base", "sync_base", "tolerable",
        "horizon_capped", "replicated", "base_only", "combos", "by_remote",
    )

    def __init__(
        self,
        rates: DiscountRates,
        business_value: float,
        tolerable: float,
        replicated: list[_CompiledTimeline],
        base_only: frozenset[str],
    ) -> None:
        self.rates = rates
        self.business_value = business_value
        # 0.0 disables the factor, matching discount_factor()'s rate == 0.
        self.comp_base = (
            (1.0 - rates.computational) if rates.computational else 0.0
        )
        self.sync_base = (
            (1.0 - rates.synchronization) if rates.synchronization else 0.0
        )
        #: Longest delay that could still beat the all-base incumbent,
        #: clamped to the lookahead cap.
        self.horizon_capped = tolerable > CANDIDATE_HORIZON_CAP
        self.tolerable = min(tolerable, CANDIDATE_HORIZON_CAP)
        #: Timelines of the replicated tables, in the query's table order.
        self.replicated = replicated
        self.base_only = base_only
        #: Gather combos per staleness order (table names, stalest first).
        self.combos: dict[tuple[str, ...], list[_Combo]] = {}
        self.by_remote: dict[frozenset[str], _Combo] = {}


@dataclass(slots=True)
class _CompiledQuery:
    """All of one query's candidate records plus what a choice depends on."""

    query: "DSSQuery"
    shape: _Shape
    arrival: float
    candidates: list[tuple]  # best estimated IV first
    sites: tuple[int, ...]  # slots any candidate reads — the choice's inputs
    latest_completion: float  # slowest candidate's uncontended completion


def _assignment(compiled: _CompiledQuery, choice: "Sequence") -> Assignment:
    """A choice record ``(candidate, begin, completed, stamp)`` as an
    :class:`Assignment`, for the callers that read one."""
    candidate, begin, completed, stamp = choice
    return Assignment(
        compiled.query, candidate, compiled.shape.rates, compiled.arrival,
        begin, completed, stamp,
    )


class _Segment:
    """One walk's fresh positions in the prefix cache: position ``i`` is
    ``ids[i]``, with the clocks (``slots`` floats at ``i * slots``), total
    and choice record (4 fields at ``4 * i``) after it; a walk diverging
    after ``offset`` positions continues at ``branches[(offset, id)]``."""

    __slots__ = ("ids", "clocks", "totals", "choices", "branches")

    def __init__(self, ids: "Sequence[int]") -> None:
        self.ids = ids
        self.clocks: list[float] = []
        self.totals: list[float] = []
        self.choices: list = []
        self.branches: dict[tuple[int, int], _Segment] = {}


class WorkloadEvaluator:
    """Scores execution orders of a workload deterministically."""

    def __init__(
        self,
        catalog: Catalog,
        cost_provider: CostProvider,
        default_rates: DiscountRates,
        workload: "Workload",
        max_candidates: int = 64,
        max_prefix_entries: int = 65_536,
        selections: "dict[int, tuple] | None" = None,
    ) -> None:
        if max_candidates < 1:
            raise OptimizationError("max_candidates must be >= 1")
        if max_prefix_entries < 0:
            raise OptimizationError("max_prefix_entries must be >= 0")
        self.catalog = catalog
        #: Must be a function of a query's shape (``DSSQuery.cost_shape``):
        #: each combo is costed once per shape, not once per query.
        self.cost_provider = cost_provider
        self.default_rates = default_rates
        self.workload = workload
        self.max_candidates = max_candidates
        self.max_prefix_entries = max_prefix_entries
        self.stats = EvaluatorStats()
        self._shapes: dict[tuple, _Shape] = {}
        #: Query id → ``((start, remote tables), …)``, best estimated IV
        #: first: what :meth:`range_of` shipped from an evaluator over the
        #: same catalog.  The caller's dict, popped as queries are lowered.
        self._selections = selections if selections is not None else {}
        self._compiled: dict[int, _CompiledQuery] = {}
        #: ``(arrival, latest completion, IV upper bound)`` per lowered
        #: query; survives :meth:`evict`.
        self._summaries: dict[int, tuple[float, float, float]] = {}
        self._timelines: dict[str, _CompiledTimeline] = {}
        #: Slot → site id: the local server, then each catalog table's site.
        self._site_ids = [
            LOCAL_SITE_ID, *sorted(catalog.sites_of(catalog.table_names))
        ]
        self._slots = {site: slot for slot, site in enumerate(self._site_ids)}
        #: Per-slot clocks every evaluation starts from: idle servers, or
        #: the committed mid-stream state handed to :meth:`rebase`.
        self._base = [0.0] * len(self._site_ids)
        self._root = _Segment(())  # the prefix cache, at the base clocks
        # choose_best's memo, (query id, clocks of its candidate slots) →
        # choice: all that a scan reads, so exact; capped like the prefixes.
        self._choices: dict[tuple, tuple] = {}

    # -- candidate plans ---------------------------------------------------

    def rates_for(self, query: "DSSQuery") -> DiscountRates:
        """Per-query rates if set, otherwise the system default."""
        return query.rates if query.rates is not None else self.default_rates

    def candidates(self, query: "DSSQuery") -> list[QueryPlan]:
        """Candidate plans for one query (gather combos + delays).

        Materialised from the query's compiled candidates, best estimated
        IV first.  Two silent caps apply and are recorded in
        :attr:`stats`: the lookahead horizon is clamped to 24 hours
        (``horizon_capped``), and plans beyond ``max_candidates`` are cut
        after the estimated-IV sort (``candidate_plans_dropped``).
        """
        compiled = self._compiled_query(query.query_id)
        rates = compiled.shape.rates
        return [
            _candidate_plan(candidate, compiled.query, compiled.arrival, rates)
            for candidate in compiled.candidates
        ]

    # -- compile once per shape ---------------------------------------------

    def _timeline(self, table: str) -> _CompiledTimeline:
        timeline = self._timelines.get(table)
        if timeline is None:
            replica = self.catalog.replica(table)
            assert replica is not None  # replica reads imply a replica
            timeline = self._timelines[table] = _CompiledTimeline(replica)
        return timeline

    def _shape_of(self, query: "DSSQuery") -> _Shape:
        rates = self.rates_for(query)
        key = (query.cost_shape(), query.business_value, rates)
        shape = self._shapes.get(key)
        if shape is not None:
            return shape
        value = query.business_value
        # The all-base plan is always available and sets the incumbent;
        # delaying past the latency that alone discounts below it cannot
        # win (Section 3.1's scatter bound).
        all_base = self.cost_provider.combo_cost(query, frozenset(query.tables))
        incumbent = information_value(
            value, all_base.total, all_base.total, rates
        )
        replicated, base_only = split_tables(query, self.catalog)
        shape = self._shapes[key] = _Shape(
            rates,
            value,
            max_tolerable_latency(value, incumbent, rates.computational),
            [self._timeline(name) for name in replicated],
            frozenset(base_only),
        )
        self.stats.shapes += 1
        return shape

    def _combo(
        self, shape: _Shape, query: "DSSQuery", remote: frozenset[str]
    ) -> _Combo:
        """The shape's combo reading ``remote`` at the base sites, built
        once; ``remote`` may come from a shipped selection, so it is checked:
        every base-only table, and only the query's own."""
        combo = shape.by_remote.get(remote)
        if combo is None:
            if not (
                isinstance(remote, frozenset)
                and shape.base_only <= remote <= frozenset(query.tables)
            ):
                raise OptimizationError(
                    f"{remote!r} is not a remote set of query "
                    f"{query.name!r} over tables {query.tables}"
                )
            combo = shape.by_remote[remote] = _Combo(
                remote,
                self.cost_provider.combo_cost(query, remote),
                tuple(
                    self._timeline(name)
                    for name in query.tables
                    if name not in remote
                ),
                self._slots,
            )
        return combo

    def _gather(
        self, shape: _Shape, query: "DSSQuery", order: tuple[str, ...]
    ) -> list[_Combo]:
        """The non-dominated combos for one staleness order (gather step).

        Substitute the ``k`` stalest substitutable replicas with base
        reads, ``k = 0..len(order)``; base-only tables are always remote.
        """
        combos = [
            self._combo(shape, query, shape.base_only | frozenset(order[:k]))
            for k in range(len(order) + 1)
        ]
        if len(shape.combos) >= _MAX_STALENESS_ORDERS:
            # Stochastic sync schedules can visit up to m! orders over a
            # long-lived service; the combo records themselves (by_remote,
            # at most 2**m) survive, so a clear only costs re-gathering.
            shape.combos.clear()
        shape.combos[order] = combos
        return combos

    # -- lower per arrival ---------------------------------------------------

    def _start_instants(self, shape: _Shape, arrival: float) -> list[float]:
        """The arrival plus every sync completion worth delaying for.

        That is each completion, inside ``(arrival, arrival + tolerable]``,
        of a replica the query reads.
        """
        starts = [arrival]
        if shape.replicated:
            horizon = arrival + shape.tolerable
            points: set[float] = set()
            for timeline in shape.replicated:
                if horizon > timeline.covered:
                    timeline.cover(horizon)
                times = timeline.times
                points.update(
                    times[bisect_right(times, arrival):bisect_right(times, horizon)]
                )
            starts.extend(sorted(points))
        return starts

    def _select(
        self, shape: _Shape, query: "DSSQuery", arrival: float
    ) -> list[tuple]:
        """Select one arrival's candidates: ``(start, combo, completed)``,
        best estimated IV first, cut to ``max_candidates``.

        Bit-equal, candidate for candidate, to enumerating plans with
        :func:`~repro.core.enumeration.enumerate_plans` over
        ``[arrival, arrival + tolerable]``, sorting by estimated IV and
        cutting (``tests/test_mqo_lowering.py`` holds that pipeline as the
        oracle).  ``stats.lowerings`` counts runs of this step.
        """
        stats = self.stats
        stats.lowerings += 1
        if shape.horizon_capped:
            stats.horizon_capped += 1
        replicated = shape.replicated

        # Estimated IV per (start, combo), with exactly
        # QueryPlan.information_value's expression order.
        value = shape.business_value
        comp_base = shape.comp_base
        sync_base = shape.sync_base
        entries = []
        for start in self._start_instants(shape, arrival):
            ranked = sorted(
                [(timeline.freshness(start), timeline.name)
                 for timeline in replicated]
            )
            order = tuple([name for _fresh, name in ranked])
            combos = shape.combos.get(order)
            if combos is None:
                combos = self._gather(shape, query, order)
            for k, combo in enumerate(combos):
                # Stalest version read: replicas ranked[k:] stay
                # replicas; a base read is as fresh as `start`.
                oldest = ranked[k][0] if k < len(ranked) else inf
                if combo.has_base and start < oldest:
                    oldest = start
                completed = start + combo.processing + combo.transmission
                estimate = value
                if comp_base:
                    estimate *= comp_base ** (completed - arrival)
                if sync_base:
                    sync_latency = completed - oldest
                    if sync_latency < 0.0:
                        sync_latency = 0.0
                    estimate *= sync_base ** sync_latency
                entries.append((estimate, start, combo, completed))

        entries.sort(key=_ESTIMATE, reverse=True)
        dropped = len(entries) - self.max_candidates
        if dropped > 0:
            stats.candidate_plans_dropped += dropped
            del entries[self.max_candidates:]
        return [entry[1:] for entry in entries]

    def _records(
        self, query_id: int, query: "DSSQuery", arrival: float,
        shape: _Shape, selection: list[tuple],
    ) -> _CompiledQuery:
        """Compile a selection into candidate records (and the summary)."""
        value = shape.business_value
        comp_base = shape.comp_base
        sync_base = shape.sync_base
        # Back to front, so each record carries the largest bound from
        # itself to the end of the list.
        candidates = []
        suffix_bound = -inf
        slot_union: set[int] = set()
        latest = -inf
        for start, combo, completed in reversed(selection):
            # Realized CL ≥ start - arrival + total.  The data timestamp is
            # ≤ begin — except for a pure-replica combo whose replicas carry
            # an initial timestamp in the future of begin — so SL ≥ total
            # with that one correction.  Together these bound realized IV
            # for any server availability; _BOUND_SLACK absorbs pow()'s
            # ~1 ulp error so pruning can never flip a comparison.
            total = combo.total
            min_sl = total
            initial_max = combo.initial_max
            if initial_max is not None and initial_max > start:
                min_sl = max(0.0, start + total - initial_max)
            bound = value
            if comp_base:
                bound *= comp_base ** (start - arrival + total)
            if sync_base:
                bound *= sync_base ** min_sl
            bound *= _BOUND_SLACK
            if bound > suffix_bound:
                suffix_bound = bound
            candidates.append((
                suffix_bound, bound, start, combo.sites, combo.processing,
                combo.transmission, combo.timelines, combo.has_base,
                combo.commit_legs, combo, [None],
            ))
            slot_union.update(combo.sites)
            if completed > latest:
                latest = completed
        candidates.reverse()
        compiled = self._compiled[query_id] = _CompiledQuery(
            query, shape, arrival, candidates, (0, *sorted(slot_union)), latest
        )
        self._summaries[query_id] = (arrival, latest, suffix_bound)
        return compiled

    def _lower(self, query_id: int) -> _CompiledQuery:
        """Lower one arrival to compiled candidate records: from the
        selection shipped for it — consumed here, resolved to this
        evaluator's combos, ``completed`` by :meth:`_select`'s expression
        on the same floats — or else from its own."""
        query = self.workload.query(query_id)
        arrival = self.workload.arrival_of(query_id)
        shape = self._shape_of(query)
        shipped = []
        for start, remote in self._selections.pop(query_id, ()):
            combo = self._combo(shape, query, remote)
            shipped.append(
                (start, combo, start + combo.processing + combo.transmission)
            )
        return self._records(
            query_id, query, arrival, shape,
            shipped or self._select(shape, query, arrival),
        )

    def _compiled_query(self, query_id: int) -> _CompiledQuery:
        compiled = self._compiled.get(query_id)
        if compiled is None:
            compiled = self._lower(query_id)
        return compiled

    def _summary(self, query_id: int) -> tuple[float, float, float]:
        summary = self._summaries.get(query_id)
        if summary is None:
            self._lower(query_id)
            summary = self._summaries[query_id]
        return summary

    def evict(self, query_id: int) -> None:
        """Drop a query's candidate records (it has been dispatched).

        :meth:`range_of` and :meth:`upper_bound` keep answering from the
        three retained floats; anything else re-lowers the query, which is
        deterministic, so eviction can never change a decision.
        """
        self._compiled.pop(query_id, None)

    def range_of(
        self, query_id: int, ship: "dict[int, tuple] | None" = None
    ) -> tuple[float, float]:
        """The query's half-open execution range ``[arrival, latest)``.

        ``latest`` is the completion time of the query's slowest candidate
        plan.  Candidate plan sets are immutable per query, and neither
        endpoint reads committed server state, so the range is computed
        once per query and cached for the evaluator's lifetime —
        :meth:`rebase` deliberately does *not* invalidate it (regression
        ``tests/test_mqo_online.py::TestRangeCache``).

        With ``ship``, a dict, another evaluator will own the query and the
        caller wants the range only: the query is selected, not lowered,
        nothing is retained, and ``ship[query_id]`` receives the selection
        ``((start, remote tables), …)`` — floats and frozensets of names,
        picklable — for that evaluator's ``selections``.
        """
        if ship is not None:
            query = self.workload.query(query_id)
            arrival = self.workload.arrival_of(query_id)
            selection = self._select(self._shape_of(query), query, arrival)
            ship[query_id] = tuple(
                [(start, combo.remote_tables) for start, combo, _ in selection]
            )
            return arrival, max([entry[2] for entry in selection])
        arrival, latest, _bound = self._summary(query_id)
        return arrival, latest

    def upper_bound(self, query_id: int) -> float:
        """Largest IV any candidate of this query can ever realize.

        The bound holds for *any* server availability (see
        :meth:`_lower`), which makes it safe for admission control:
        a query whose bound is already below the floor can be shed without
        realizing a single plan.
        """
        return self._summary(query_id)[2]

    def rebase(self, free_at: dict[int, float]) -> None:
        """Re-root evaluation on committed mid-stream server state.

        After this call every evaluation (and the naive test oracle's
        replay) starts from ``free_at`` instead of idle servers, so GA
        fitness scores candidate orders *given what has already been
        dispatched*.
        ``free_at`` is flattened to per-slot clocks once, here.  The prefix
        cache is emptied (its cached prefixes assumed the old base); the
        dispatch memo survives, keyed as it is on the exact clocks.

        Rebasing onto the base already in force is a no-op: cached
        prefixes are a pure function of the base, the immutable candidate
        sets and the sync timelines, so they stay exact — clearing them
        would only cost the next pass its warm cache (regression
        ``tests/test_mqo_online.py::TestHotPathFixes``).
        """
        state = self._flatten(free_at)
        if state == self._base:
            return
        self._base = state
        self._root = _Segment(())
        self.stats.trie_entries = 0

    def _flatten(self, free_at: dict[int, float]) -> list[float]:
        """A caller's ``site id → free at`` dict as per-slot clocks."""
        return [free_at.get(site, 0.0) for site in self._site_ids]

    # -- schedule replay ---------------------------------------------------

    def _realize(
        self,
        compiled: _CompiledQuery,
        candidate: tuple,
        free_at: dict[int, float],
    ) -> Assignment:
        """Reference realization: the materialised plan against the catalog
        (``fifo`` and the naive test oracle replay with it)."""
        arrival = compiled.arrival
        rates = compiled.shape.rates
        plan = _candidate_plan(candidate, compiled.query, arrival, rates)
        involved = [LOCAL_SITE_ID, *plan.cost.remote_sites]
        begin = max(
            plan.start_time,
            arrival,
            *(free_at.get(site, 0.0) for site in involved),
        )
        completed = begin + plan.cost.processing + plan.cost.transmission
        freshness = []
        for version in plan.versions:
            if version.kind is VersionKind.BASE:
                freshness.append(begin)
            else:
                replica = self.catalog.replica(version.table)
                freshness.append(replica.freshness_at(begin))
        return Assignment(
            compiled.query, candidate, rates, arrival, begin, completed,
            min(freshness),
        )

    def _commit(self, assignment: Assignment, free_at: dict[int, float]) -> None:
        # A choice begins once every server it commits is free, so each
        # leg simply holds its server until begin + minutes.
        begin = assignment.begin
        site_ids = self._site_ids
        for slot, minutes in assignment.candidate[_COMMIT_LEGS]:
            free_at[site_ids[slot]] = begin + minutes

    def choose_best(
        self, query_id: int, free_at: dict[int, float]
    ) -> Assignment:
        """IV-best assignment for one query under ``free_at``.

        The single-query building block of :meth:`evaluate_sequence`,
        exposed for the online dispatcher, which re-asks about the same
        plan head until some clock moves: :meth:`_advance` over the
        flattened ``free_at`` for a one-query order, served from a memo —
        here and only here — when the query's clocks match an earlier
        probe.  Bit-identical to the naive test oracle, which realizes
        every candidate with :meth:`_realize` and keeps the first strict IV
        maximum (``tests/test_mqo_online.py::TestHotPathFixes``).
        ``free_at`` is read, never written; it is the caller's job to
        :meth:`_commit` the returned assignment.
        """
        compiled = self._compiled_query(query_id)
        state = self._flatten(free_at)
        key = (query_id, *[state[slot] for slot in compiled.sites])
        choices = self._choices
        choice = choices.get(key)
        if choice is None:
            self._advance((query_id,), 0, state, 0.0, chosen := [], None)
            choice = chosen[0][1]
            if len(choices) >= self.max_prefix_entries > 0:
                choices.clear()
                self.stats.choice_evictions += 1
            choices[key] = choice
        else:
            self.stats.choice_hits += 1
            self.stats.naive_realize_calls += len(compiled.candidates)
        return _assignment(compiled, choice)

    # -- evaluation entry points -------------------------------------------

    def _walk(
        self, order: "Sequence[int]", chosen: list[tuple] | None = None
    ) -> float:
        """Total realized IV of a sequence of distinct workload query ids:
        resumed from the longest cached prefix, the rest scored by
        :meth:`_advance` (no memo: past the prefix the clocks are new) into
        one new segment.  ``chosen`` receives every position's ``(compiled
        query, choice record)``."""
        if len(set(order)) != len(order):
            raise OptimizationError("sequence must not repeat query ids")
        stats = self.stats
        stats.evaluations += 1
        lowered = self._compiled
        naive = offset = depth = end = 0
        segment, ids, length = self._root, (), len(order)
        while depth < length:
            query_id = order[depth]
            if offset == end or ids[offset] != query_id:
                child = segment.branches.get((offset, query_id))
                if child is None:
                    break
                segment, ids, offset, end = child, child.ids, 0, len(child.ids)
            offset += 1
            depth += 1
            compiled = lowered.get(query_id) or self._lower(query_id)
            naive += len(compiled.candidates)
            if chosen is not None:
                record = segment.choices[4 * offset - 4:4 * offset]
                chosen.append((compiled, record))
        stats.naive_realize_calls += naive
        if depth:
            stats.prefix_hits += 1
            stats.prefix_queries_skipped += depth
        stats.resume_depths[depth] = stats.resume_depths.get(depth, 0) + 1
        total_iv = segment.totals[offset - 1] if offset else 0.0
        if depth == length:
            return total_iv
        slots = len(self._base)
        state = (
            segment.clocks[(offset - 1) * slots:offset * slots]
            if offset else self._base[:]
        )
        tail = _Segment(order[depth:]) if self.max_prefix_entries else None
        total_iv = self._advance(order, depth, state, total_iv, chosen, tail)
        if tail is not None:
            # Hung once complete; after a generational clear inside the
            # walk, `segment` and the tail belong to the discarded cache.
            segment.branches[(offset, order[depth])] = tail
        return total_iv

    def _advance(
        self, order: "Sequence[int]", position: int, state: list[float],
        total_iv: float, chosen: list[tuple] | None, tail: _Segment | None,
    ) -> float:
        """Score ``order[position:]`` from clocks ``state`` (committed in
        place) and ``total_iv``: the one copy of the candidate scan.  Each
        choice also goes to ``chosen`` and, counted by the cap, ``tail``."""
        stats = self.stats
        lowered = self._compiled
        cap, entries = self.max_prefix_entries, stats.trie_entries
        naive = realized = 0
        for index in range(position, len(order)):
            compiled = lowered.get(order[index]) or self._lower(order[index])
            arrival = compiled.arrival
            candidates = compiled.candidates
            shape = compiled.shape
            value = shape.business_value
            comp_base = shape.comp_base
            sync_base = shape.sync_base
            naive += len(candidates)
            best = None
            best_iv = -inf
            local_clock = state[0]
            for candidate in candidates:
                (suffix_bound, bound, begin, sites, processing, transmission,
                 timelines, has_base, _legs, _combo, _cell) = candidate
                if suffix_bound < best_iv:
                    break  # nor can any later candidate win
                if bound < best_iv:
                    continue
                # Every candidate runs through the local server, so begin
                # is at least the local clock; decaying the static bound by
                # the extra wait keeps it valid under contention.
                delay = local_clock - begin
                if delay > 0.0:
                    if comp_base:
                        bound *= comp_base**delay * _BOUND_SLACK
                        if bound < best_iv:
                            continue
                    begin = local_clock
                for slot in sites:
                    busy = state[slot]
                    if busy > begin:
                        begin = busy
                # Same association order as _realize: (begin + P) + T.
                completed = begin + processing + transmission
                # Stalest version read: _CompiledTimeline.freshness per
                # replica, inlined; a base read is as fresh as begin.
                stamp = begin if has_base or not timelines else inf
                for timeline in timelines:
                    if begin > timeline.covered:
                        timeline.cover(begin)
                    times = timeline.times
                    found = bisect_right(times, begin)
                    fresh = times[found - 1] if found else timeline.initial
                    if fresh < stamp:
                        stamp = fresh
                # Identical arithmetic to information_value(): bv *
                # (1-λc)**CL * (1-λs)**SL with rate-zero factors elided.
                iv = value
                if comp_base:
                    iv *= comp_base ** (completed - arrival)
                if sync_base:
                    sync_latency = completed - stamp
                    if sync_latency < 0.0:
                        sync_latency = 0.0
                    iv *= sync_base ** sync_latency
                realized += 1
                if iv > best_iv:
                    best_iv = iv
                    best = (candidate, begin, completed, stamp)
            if best is None:  # pragma: no cover - candidates never empty
                raise OptimizationError("no candidate plan survived")
            begin = best[1]
            for slot, minutes in best[0][_COMMIT_LEGS]:
                busy_until = begin + minutes
                if busy_until > state[slot]:
                    state[slot] = busy_until
            total_iv += best_iv
            if chosen is not None:
                chosen.append((compiled, best))
            if tail is None:
                continue
            if entries < cap:
                entries += 1
            else:
                # Generational clear at the base in force: bounded memory
                # beats a perfect LRU, as the GA repopulates hot prefixes.
                self._root = _Segment(())
                entries = 0
                stats.trie_evictions += 1
            tail.clocks += state
            tail.totals.append(total_iv)
            tail.choices += best
        stats.trie_entries = entries
        stats.realize_calls += realized
        # Every candidate was either realized or pruned by a bound.
        stats.candidates_pruned += naive - realized
        stats.naive_realize_calls += naive
        return total_iv

    def evaluate_sequence(self, order: "Sequence[int]") -> EvaluationResult:
        """Realize an arbitrary sequence of distinct workload query ids.

        Resume from the longest cached prefix, then realize remaining
        positions with compiled candidates.  Results are bit-identical to
        the naive test oracle's replay of the same sequence
        (``tests/mqo_naive_oracle.py``).
        """
        chosen: list[tuple] = []
        self._walk(order, chosen)
        return EvaluationResult(
            assignments=[
                _assignment(compiled, choice) for compiled, choice in chosen
            ]
        )

    def evaluate(self, permutation: list[int]) -> EvaluationResult:
        """Realize a permutation of query ids, greedily re-planning each.

        Queries run in the given order; each picks its IV-best candidate
        plan given current server availabilities, then occupies servers.
        """
        expected = {query.query_id for query in self.workload.queries}
        if set(permutation) != expected or len(permutation) != len(expected):
            raise OptimizationError(
                "permutation must contain each workload query id exactly once"
            )
        return self.evaluate_sequence(permutation)

    def fitness(self, permutation: list[int]) -> float:
        """GA fitness: the permutation's total realized information value."""
        return self.evaluate(permutation).total_information_value

    def sequence_fitness(self, order: "Sequence[int]") -> float:
        """Fitness of a partial order (e.g. one conflict group's permutation).

        The walk's running total — the same left-to-right adds as
        ``evaluate_sequence(order).total_information_value``, so the two
        are equal bit for bit — without building a result.
        """
        return self._walk(order)
