"""The metrics registry: one streaming fold of the trace.

Every number the runtime reports about a run is folded from its
:class:`~repro.sim.trace.Tracer` records — while the run is running (the
online scheduler admits and sheds, the executor completes queries, faults
open and close) by subscribing to the tracer, or after it by feeding the
retained records (``FederatedSystem.metrics()``).  The state is bounded:

* :class:`EwmaRate` / :class:`EwmaMean` — exponentially-decayed event rates
  and means over *simulation* time (half-life, not bucket, semantics);
* :class:`WindowCounter` — an exact sliding-window event count (deque of
  timestamps, pruned as time advances);
* :class:`P2Quantile` — the Jain/Chlamtac P² streaming quantile sketch:
  five markers, O(1) memory, no stored samples — unlike
  :class:`~repro.obs.metrics.Histogram`'s fixed buckets it adapts to the
  observed scale;
* :class:`LiveRegistry` — the fold itself: counters, gauges, rates, fixed
  histograms and sketches, snapshotable at any simulation instant via
  :meth:`LiveRegistry.snapshot`.

Equivalence contract (property-tested against the tests-only oracle
``tests/metrics_oracle.py``, which reads a drained system's outcomes and
sync counters, never its trace): folding a checker-clean trace yields
final counters and IV / CL / SL histogram buckets **equal** to the
oracle's, and sketch quantiles within the sketch's error bounds — the
ledger records carry the exact outcome floats in completion order.

There is no second way to build a registry: state is never serialized
or merged.  Across processes the records travel instead, and the fleet
registry (:attr:`repro.obs.fleet.FleetCollector.registry`) is this same
fold fed the merged fleet trace.
"""

from __future__ import annotations

import math
import typing
from collections import deque

from repro.errors import SimulationError
from repro.obs import events
from repro.obs.ledger import IVLedgerEntry
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram
from repro.sim.trace import TraceRecord

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.sim.trace import Tracer

__all__ = [
    "EwmaRate",
    "EwmaMean",
    "WindowCounter",
    "P2Quantile",
    "TableSyncState",
    "LiveRegistry",
]

#: IV histogram bounds of ``query.iv.hist`` (IV lies in [0, 1]).
IV_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


class EwmaRate:
    """Exponentially-decayed event rate (events per minute of sim time).

    Each arrival deposits ``weight × ln2 / half_life`` onto a value that
    decays by half every ``half_life`` minutes.  With decay constant
    ``λ = ln2/half_life`` and deposits of size ``λ``, a steady stream of
    rate *r* events/minute converges to exactly *r* — the deposit rate
    ``r·λ`` balances the decay ``λ·value`` at ``value = r``.
    """

    __slots__ = ("half_life", "_value", "_last")

    def __init__(self, half_life: float) -> None:
        if half_life <= 0:
            raise SimulationError(f"half_life must be > 0, got {half_life}")
        self.half_life = half_life
        self._value = 0.0
        self._last = None

    def observe(self, now: float, weight: float = 1.0) -> None:
        """Record ``weight`` events at sim time ``now``."""
        self._value = self.rate(now) + weight * math.log(2.0) / self.half_life
        if self._last is None or now > self._last:
            self._last = now

    def rate(self, now: float | None = None) -> float:
        """The rate (events/minute), decayed to ``now`` when given.

        A pure read: only :meth:`observe` advances state, so how often a
        rate is read cannot change its bits.
        """
        if now is None or self._last is None or now <= self._last:
            return self._value
        return self._value * 2.0 ** (-(now - self._last) / self.half_life)


class EwmaMean:
    """Exponentially-decayed weighted mean of observed values.

    The weight of an observation halves every ``half_life`` minutes of sim
    time; :meth:`mean` is the decayed value sum over the decayed weight sum
    (0.0 before any observation).
    """

    __slots__ = ("half_life", "_weighted", "_weight", "_last")

    def __init__(self, half_life: float) -> None:
        if half_life <= 0:
            raise SimulationError(f"half_life must be > 0, got {half_life}")
        self.half_life = half_life
        self._weighted = 0.0
        self._weight = 0.0
        self._last = None

    def observe(self, now: float, value: float) -> None:
        """Fold one value observed at sim time ``now``."""
        if self._last is not None and now > self._last:
            factor = 2.0 ** (-(now - self._last) / self.half_life)
            self._weighted *= factor
            self._weight *= factor
        if self._last is None or now > self._last:
            self._last = now
        self._weighted += value
        self._weight += 1.0

    def mean(self) -> float:
        """The decayed mean (0.0 when nothing was observed)."""
        return self._weighted / self._weight if self._weight else 0.0


class WindowCounter:
    """Exact count of events inside a sliding sim-time window.

    Memory is bounded by the number of events inside the window, not the
    stream length; :meth:`count` prunes as time advances.
    """

    __slots__ = ("window", "_times")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise SimulationError(f"window must be > 0, got {window}")
        self.window = window
        self._times: deque[float] = deque()

    def observe(self, now: float) -> None:
        """Record one event at sim time ``now``."""
        self._times.append(now)
        self._prune(now)

    def _prune(self, now: float) -> None:
        floor = now - self.window
        while self._times and self._times[0] <= floor:
            self._times.popleft()

    def count(self, now: float) -> int:
        """Events with timestamps in ``(now - window, now]``."""
        self._prune(now)
        return len(self._times)

    def rate(self, now: float) -> float:
        """Events per minute over the window."""
        return self.count(now) / self.window


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac, 1985).

    Five markers track the min, the q/2, q, (1+q)/2 quantiles and the max;
    marker heights move by parabolic (falling back to linear) interpolation
    as observations stream in.  Memory is O(1) and no sample is retained.

    Error bounds: with fewer than five observations the estimate is the
    **exact** sample quantile (nearest-rank over the sorted buffer); from
    five on, the estimate is always within ``[min, max]`` of the observed
    samples and is exact for constant streams.  Accuracy on smooth
    distributions is typically within a few percent of the true quantile —
    the property suite asserts the hard guarantees, the unit tests the
    typical accuracy.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise SimulationError(f"P2 quantile q must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    @property
    def count(self) -> int:
        """Observations folded so far."""
        return self._count

    def observe(self, value: float) -> None:
        """Fold one sample."""
        value = float(value)
        self._count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions

        # 1. Find the cell and update extreme markers.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]

        # 2. Nudge interior markers toward their desired positions.
        for index in range(1, 4):
            delta = self._desired[index] - positions[index]
            at, below, above = (
                positions[index], positions[index - 1], positions[index + 1]
            )
            if (delta >= 1.0 and above - at > 1.0) or (
                delta <= -1.0 and below - at < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if not heights[index - 1] < candidate < heights[index + 1]:
                    candidate = self._linear(index, step)
                heights[index] = candidate
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[index] + step / (n[index + 1] - n[index - 1]) * (
            (n[index] - n[index - 1] + step)
            * (h[index + 1] - h[index])
            / (n[index + 1] - n[index])
            + (n[index + 1] - n[index] - step)
            * (h[index] - h[index - 1])
            / (n[index] - n[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        h, n = self._heights, self._positions
        other = index + int(step)
        return h[index] + step * (h[other] - h[index]) / (n[other] - n[index])

    def value(self) -> float:
        """The current estimate (exact below five samples; 0.0 when empty)."""
        if not self._heights:
            return 0.0
        if len(self._heights) < 5 or self._count < 5:
            # Exact nearest-rank quantile over the (sorted) startup buffer.
            rank = max(0, math.ceil(self.q * len(self._heights)) - 1)
            return self._heights[rank]
        return self._heights[2]


class TableSyncState:
    """Per-table replication telemetry folded from the sync event stream.

    Tracks the *realized* freshness frontier (last applied sync), the
    *published* frontier (what the schedule promised, advanced by applied,
    skipped and delayed syncs alike), and an update-rate EWMA of sync
    applications — exactly the per-table signals a demand-driven sync
    controller needs (staleness = now − realized, divergence = published −
    realized).
    """

    __slots__ = ("last_apply", "published", "last_gap", "syncs", "update_rate")

    def __init__(self, half_life: float) -> None:
        self.last_apply: float | None = None
        self.published = 0.0
        self.last_gap = 0.0
        self.syncs = 0
        self.update_rate = EwmaRate(half_life)

    def apply(self, now: float, at: float, gap: float) -> None:
        """Fold one applied sync."""
        self.last_apply = at if self.last_apply is None else max(self.last_apply, at)
        self.published = max(self.published, at)
        self.last_gap = gap
        self.syncs += 1
        self.update_rate.observe(now)

    def publish(self, scheduled: float) -> None:
        """Fold a skipped/delayed sync: the schedule promised ``scheduled``."""
        self.published = max(self.published, scheduled)

    def staleness(self, now: float) -> float:
        """Minutes since the table's content was last refreshed."""
        return max(0.0, now - (self.last_apply or 0.0))

    def divergence(self) -> float:
        """Published-minus-realized freshness gap (0.0 when in step)."""
        return max(0.0, self.published - (self.last_apply or 0.0))

    def gauges(self, now: float) -> dict[str, float]:
        """The per-table gauge block exposed in snapshots."""
        return {
            "sync.table.staleness": self.staleness(now),
            "sync.table.divergence": self.divergence(),
            "sync.table.update_rate": self.update_rate.rate(now),
            "sync.table.last_gap": self.last_gap,
            "sync.table.syncs": float(self.syncs),
        }


class LiveRegistry:
    """Streaming fold of a trace into live counters, rates and sketches.

    Attach to a tracer (:meth:`attach`) or feed records explicitly
    (:meth:`observe`); read a JSON-ready view at any instant with
    :meth:`snapshot`.  All state is bounded: fixed histograms, O(1)
    sketches and EWMAs, sliding windows pruned as time advances, plus one
    small in-flight map (submitted-but-unfinished queries).

    Parameters
    ----------
    window:
        Sliding-window span (sim minutes) for the arrival/completion/shed
        windows the SLO rules read.
    half_life:
        Decay half-life (sim minutes) of the EWMA rates and means.
    qos_max_staleness:
        Replica-staleness threshold; sync gaps beyond it count as QoS
        violations (mirrors ``ReplicationManager``'s accounting).
    """

    def __init__(
        self,
        window: float = 10.0,
        half_life: float = 10.0,
        qos_max_staleness: float | None = None,
    ) -> None:
        self.window = window
        self.half_life = half_life
        self.qos_max_staleness = qos_max_staleness
        self.now = 0.0
        self.counters: dict[str, float] = {}

        self.iv_hist = Histogram("query.iv.hist", bounds=IV_BUCKETS)
        self.cl_hist = Histogram("query.cl.hist", bounds=DEFAULT_BUCKETS)
        self.sl_hist = Histogram("query.sl.hist", bounds=DEFAULT_BUCKETS)
        self.cl_p50 = P2Quantile(0.5)
        self.cl_p95 = P2Quantile(0.95)
        self.sl_p95 = P2Quantile(0.95)
        self.iv_p50 = P2Quantile(0.5)
        self.staleness_p95 = P2Quantile(0.95)

        self.arrival_rate = EwmaRate(half_life)
        self.completion_rate = EwmaRate(half_life)
        self.iv_ewma = EwmaMean(half_life)
        self.arrivals_window = WindowCounter(window)
        self.completions_window = WindowCounter(window)
        self.shed_window = WindowCounter(window)
        self.failed_window = WindowCounter(window)

        #: Realized-vs-planned IV: sums over completed queries whose plan
        #: event (``est_iv``) was seen.
        self._estimated_iv = 0.0
        self._realized_iv = 0.0
        self._pending_estimates: dict[int, float] = {}
        #: In-flight queries: submitted but not yet completed/failed.
        self._in_flight: set[int] = set()
        #: Down sites and when their current outage opened.
        self._down_since: dict[str, float] = {}
        self._staleness_sum = 0.0
        self._staleness_count = 0
        #: Per-table replication telemetry, keyed by table name.
        self._tables: dict[str, TableSyncState] = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, tracer: "Tracer") -> "LiveRegistry":
        """Subscribe to every future record of ``tracer``; returns self."""
        tracer.subscribe(self.observe)
        return self

    def _inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _table(self, name: str) -> TableSyncState:
        if name not in self._tables:
            self._tables[name] = TableSyncState(self.half_life)
        return self._tables[name]

    # -- the fold -----------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Fold one trace record into the live state."""
        self.now = max(self.now, record.time)
        kind = record.kind
        detail = record.detail
        if kind == events.SUBMIT:
            self._inc("query.submitted")
            self.arrival_rate.observe(record.time)
            self.arrivals_window.observe(record.time)
            qid = detail.get("qid")
            if qid is not None:
                self._in_flight.add(qid)
        elif kind == events.PLAN:
            estimate = detail.get("est_iv")
            qid = detail.get("qid")
            if estimate is not None and qid is not None:
                self._pending_estimates[qid] = estimate
        elif kind in (events.COMPLETE, events.FAILED):
            self._inc("query.completed")
            if kind == events.FAILED:
                self._inc("query.failed")
                self.failed_window.observe(record.time)
            self.completion_rate.observe(record.time)
            self.completions_window.observe(record.time)
            qid = detail.get("qid")
            if qid is not None:
                self._in_flight.discard(qid)
                estimate = self._pending_estimates.pop(qid, None)
                if estimate is not None:
                    self._estimated_iv += estimate
                    self._realized_iv += detail.get("iv", 0.0)
            if kind == events.COMPLETE:
                self.iv_ewma.observe(record.time, detail.get("iv", 0.0))
        elif kind == events.LEDGER:
            # The ledger is the audit record: histograms and sketches read
            # its exact floats, so final buckets match the outcomes'
            # bit-for-bit (same values, same order).
            try:
                entry = IVLedgerEntry.from_dict(detail)
            except (KeyError, TypeError):
                self._inc("ledger.malformed")
                return
            self._inc("ledger.entries")
            self._inc("query.retries", entry.retries)
            self._inc("query.failovers", entry.failovers)
            if entry.degraded:
                self._inc("query.degraded")
            self.iv_hist.observe(entry.reported_iv)
            self.cl_hist.observe(entry.computational_latency)
            self.sl_hist.observe(entry.synchronization_latency)
            self.iv_p50.observe(entry.reported_iv)
            self.cl_p50.observe(entry.computational_latency)
            self.cl_p95.observe(entry.computational_latency)
            self.sl_p95.observe(entry.synchronization_latency)
        elif kind == events.SYNC_APPLY:
            self._inc("sync.total")
            gap = detail.get("gap", 0.0)
            self._staleness_sum += gap
            self._staleness_count += 1
            self.staleness_p95.observe(gap)
            self._table(record.subject).apply(
                record.time, detail.get("at", record.time), gap
            )
            if (
                self.qos_max_staleness is not None
                and gap > self.qos_max_staleness
            ):
                self._inc("sync.qos_violations")
        elif kind == events.SYNC_SKIP:
            self._inc("sync.skipped")
            self._table(record.subject).publish(
                detail.get("scheduled", record.time)
            )
        elif kind == events.SYNC_DELAY:
            self._inc("sync.delayed")
            self._table(record.subject).publish(
                detail.get("scheduled", record.time)
            )
        elif kind == events.FAULT_DOWN:
            self._inc("faults.outages")
            self._down_since[record.subject] = record.time
        elif kind == events.FAULT_UP:
            self._down_since.pop(record.subject, None)
        elif kind == events.MQO_ADMIT:
            self._inc("mqo.admitted")
            if detail.get("requeued"):
                self._inc("mqo.requeued")
        elif kind == events.MQO_SHED:
            self._inc("mqo.shed")
            self.shed_window.observe(record.time)
        elif kind == events.MQO_WINDOW:
            self._inc("mqo.windows")
        elif kind in (events.ALERT_OPEN, events.ALERT_CLOSE):
            self._inc(f"slo.{kind.split('.', 1)[1]}")

    # -- reading ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Queries submitted but not yet completed/failed."""
        return len(self._in_flight)

    @property
    def sites_down(self) -> int:
        """Sites currently inside an outage window."""
        return len(self._down_since)

    def outage_dwell(self, now: float | None = None) -> float:
        """Longest current outage's dwell time (0.0 when all sites are up)."""
        now = self.now if now is None else now
        if not self._down_since:
            return 0.0
        return max(now - since for since in self._down_since.values())

    def iv_realization_ratio(self) -> float:
        """Realized / planned IV over completed queries (1.0 before data).

        Below 1.0 the system is delivering less value than it planned —
        the stream is decaying reports faster than the router priced in.
        """
        if self._estimated_iv <= 0.0:
            return 1.0
        return self._realized_iv / self._estimated_iv

    def shed_ratio(self, now: float | None = None) -> float:
        """Shed / arrivals inside the sliding window (0.0 when quiet)."""
        now = self.now if now is None else now
        arrivals = self.arrivals_window.count(now)
        shed = self.shed_window.count(now)
        seen = arrivals + shed  # shed queries never get a submit event
        return shed / seen if seen else 0.0

    def staleness_mean(self) -> float:
        """Mean sync gap observed so far (0.0 before any sync)."""
        if not self._staleness_count:
            return 0.0
        return self._staleness_sum / self._staleness_count

    def read(self, metric: str, now: float | None = None) -> float | None:
        """``SLORule.read`` of :meth:`snapshot` ``(now)`` for ``metric``,
        without building the rest of the snapshot."""
        now = self.now if now is None else now
        section, _, key = metric.partition(".")
        if section == "counters":
            value = self.counters.get(key)
        else:
            reader = _READERS.get(section, {}).get(key)
            value = None if reader is None else reader(self, now)
        return value if isinstance(value, (int, float)) else None

    def snapshot(self, now: float | None = None) -> dict:
        """One JSON-ready view of the live state at sim time ``now``."""
        now = self.now if now is None else now
        return {
            "time": now,
            "counters": dict(sorted(self.counters.items())),
            **{
                section: {key: reader(self, now) for key, reader in readers.items()}
                for section, readers in _READERS.items()
            },
            "histograms": {
                "query.iv.hist": self.iv_hist.snapshot(),
                "query.cl.hist": self.cl_hist.snapshot(),
                "query.sl.hist": self.sl_hist.snapshot(),
            },
            "tables": {
                name: table.gauges(now)
                for name, table in sorted(self._tables.items())
            },
        }


#: Each snapshot gauge, rate and quantile by section and key, evaluated by
#: both :meth:`LiveRegistry.snapshot` and :meth:`LiveRegistry.read`.
_READERS: dict[str, dict[str, Callable[[LiveRegistry, float], float]]] = {
    "gauges": {
        "query.in_flight": lambda r, now: r.in_flight,
        "faults.sites_down": lambda r, now: r.sites_down,
        "faults.outage_dwell": LiveRegistry.outage_dwell,
        "query.iv.realization": lambda r, now: r.iv_realization_ratio(),
        "mqo.shed.ratio": LiveRegistry.shed_ratio,
        "sync.staleness.mean": lambda r, now: r.staleness_mean(),
    },
    "rates": {
        "query.arrivals.ewma": lambda r, now: r.arrival_rate.rate(now),
        "query.completions.ewma": lambda r, now: r.completion_rate.rate(now),
        "query.arrivals.window": lambda r, now: r.arrivals_window.rate(now),
        "query.completions.window": lambda r, now: r.completions_window.rate(now),
        "query.failed.window": lambda r, now: r.failed_window.rate(now),
        "query.iv.ewma": lambda r, now: r.iv_ewma.mean(),
    },
    "quantiles": {
        "query.cl.p50": lambda r, now: r.cl_p50.value(),
        "query.cl.p95": lambda r, now: r.cl_p95.value(),
        "query.sl.p95": lambda r, now: r.sl_p95.value(),
        "query.iv.p50": lambda r, now: r.iv_p50.value(),
        "sync.staleness.p95": lambda r, now: r.staleness_p95.value(),
    },
}
