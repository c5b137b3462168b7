"""Fleet telemetry: cross-process trace collection.

The sharded runtimes (EXT5's spawned workers, and any future multi-process
serving tier) are observability black boxes by default: lifecycle events
and drop counters die with the worker.  This module ships them home.

Each shard worker traces its run on its own
:class:`~repro.sim.trace.Tracer` and returns a :class:`ShardTelemetry` —
the records as emitted plus the shard's scheduler totals — in its result:
in process with ``executor="serial"``, pickled through the pool's result
with ``"process"``.  A shard ships records, never derived state.  At join,
the parent hands those telemetries to :class:`FleetCollector`, which
rebuilds

* **one canonical trace** — per-shard streams merged into a stable global
  time order (ties broken by shard index, then per-shard emit order), every
  record tagged ``shard=k`` in its detail, exportable to chrome://tracing
  with one process group per shard (:meth:`FleetCollector.chrome_trace`);
* **one fleet registry**, on demand — a single
  :class:`~repro.obs.live.LiveRegistry` fed the records as emitted in that
  same merged order, so it *is* the union fold, not an approximation of it;
* **one fleet snapshot** — per-shard summaries (including each shard's
  ``dropped_events``) plus fleet totals whose IV/latency sums are
  *bit-exact* left-to-right sums of the per-shard values, which
  :meth:`TraceChecker.check_fleet <repro.obs.checker.TraceChecker.check_fleet>`
  re-derives from the trace and audits.
"""

from __future__ import annotations

import heapq
import itertools
import typing
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.obs.export import to_chrome_trace
from repro.sim.trace import TraceRecord

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import LiveRegistry

__all__ = [
    "FLEET_PID_BASE",
    "ShardTelemetry",
    "FleetCollector",
]

#: Chrome-trace pid of shard 0; shard *k* renders as process ``base + k``.
#: Starts above pid 1 (the single-process simulation domain) and pid 2
#: (the wall-clock profiler) so fleet traces never collide with either.
FLEET_PID_BASE = 10


@dataclass
class ShardTelemetry:
    """Everything one shard shipped home: its trace + totals."""

    shard: int
    #: Trace records in emit order, as the shard's tracer emitted them.
    records: list[TraceRecord] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def dropped_events(self) -> int:
        """Events the shard's tracer evicted before it returned them."""
        return int(self.summary.get("dropped_events", 0))


def _lsum(values: typing.Iterable[float]) -> float:
    """Plain left-to-right float sum — the fleet's *bit-exactness contract*.

    Every fleet total is this fold over per-shard values in shard order;
    the checker recomputes the same fold, so equality is ``==``, not
    within-epsilon.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class FleetCollector:
    """Merge per-shard telemetry into one canonical fleet view."""

    def __init__(self, shards: typing.Sequence[ShardTelemetry]) -> None:
        if not shards:
            raise SimulationError("FleetCollector needs at least one shard")
        self.shards = sorted(shards, key=lambda telemetry: telemetry.shard)
        seen = [telemetry.shard for telemetry in self.shards]
        if len(set(seen)) != len(seen):
            raise SimulationError(f"duplicate shard indices in fleet: {seen}")
        self._records: list[TraceRecord] | None = None
        self._registry: LiveRegistry | None = None

    # -- the canonical trace ------------------------------------------------

    def _merged(self) -> typing.Iterator[tuple[int, TraceRecord]]:
        """``(shard, record as emitted)`` in global time order.

        Per-shard streams are individually time-monotone (the tracer
        enforces it), so a k-way heap merge on time yields a total order;
        ties keep shard-index order, then per-shard emit order — the same
        input always merges to the same output.
        """
        return heapq.merge(
            *(
                zip(itertools.repeat(telemetry.shard), telemetry.records)
                for telemetry in self.shards
            ),
            key=lambda pair: pair[1].time,
        )

    @property
    def records(self) -> list[TraceRecord]:
        """The merged fleet trace, each record's detail tagged ``shard=k``.

        The tag is added here, on copies: the shards' own records stay as
        emitted for the registry and the chrome export, whose ledger
        parser is strict.
        """
        if self._records is None:
            self._records = [
                TraceRecord(
                    record.time, record.kind, record.subject,
                    {**record.detail, "shard": shard},
                )
                for shard, record in self._merged()
            ]
        return self._records

    # -- the fleet registry -------------------------------------------------

    @property
    def registry(self) -> "LiveRegistry":
        """The fleet registry: one :class:`~repro.obs.live.LiveRegistry`
        fed every shard's records as emitted, in :attr:`records` order.

        Folded on first read only.  It reads the untagged records because
        the registry parses ledger details through the strict
        ``IVLedgerEntry.from_dict``, which would count a tagged ledger
        record as malformed.
        """
        if self._registry is None:
            from repro.obs.live import LiveRegistry

            registry = LiveRegistry()
            for _shard, record in self._merged():
                registry.observe(record)
            self._registry = registry
        return self._registry

    # -- conservation inputs ------------------------------------------------

    def shard_ledger_totals(self) -> list[dict[str, float]]:
        """Per-shard ledger sums (reported IV, computational latency).

        Summed in trace order within each shard — the same order the
        checker re-derives them in, so the fleet totals below are
        reproducible bit-for-bit from the trace alone.
        """
        from repro.obs import events

        totals = []
        for telemetry in self.shards:
            ledger_iv = 0.0
            ledger_cl = 0.0
            entries = 0
            for record in telemetry.records:
                if record.kind != events.LEDGER:
                    continue
                detail = record.detail
                ledger_iv += detail.get("reported_iv", 0.0)
                # CL exactly as IVLedgerEntry.computational_latency defines it.
                ledger_cl += detail.get("completed_at", 0.0) - detail.get(
                    "submitted_at", 0.0
                )
                entries += 1
            totals.append({
                "ledger_entries": entries,
                "ledger_iv": ledger_iv,
                "ledger_cl": ledger_cl,
            })
        return totals

    # -- the fleet snapshot -------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-ready fleet view: per-shard panels + bit-exact totals.

        ``shards`` keeps every per-shard summary (scheduler totals,
        ``dropped_events``, ledger sums); ``fleet`` holds the totals, each
        a left-to-right sum over shards in shard order (:func:`_lsum`),
        which ``check_fleet`` audits bit-exactly against the trace.  The
        fleet registry is not part of it: a caller that wants it reads
        :attr:`registry`.
        """
        ledger_totals = self.shard_ledger_totals()
        shards = []
        for telemetry, ledger in zip(self.shards, ledger_totals):
            panel = {
                "shard": telemetry.shard,
                "records": len(telemetry.records),
                "dropped_events": telemetry.dropped_events,
                **{
                    key: value
                    for key, value in telemetry.summary.items()
                    if key != "dropped_events"
                },
                **ledger,
            }
            shards.append(panel)
        fleet = {
            "shards": len(self.shards),
            "records": sum(panel["records"] for panel in shards),
            "dropped_events": sum(panel["dropped_events"] for panel in shards),
            "ledger_entries": sum(
                ledger["ledger_entries"] for ledger in ledger_totals
            ),
            "ledger_iv": _lsum(ledger["ledger_iv"] for ledger in ledger_totals),
            "ledger_cl": _lsum(ledger["ledger_cl"] for ledger in ledger_totals),
        }
        if all("total_iv" in telemetry.summary for telemetry in self.shards):
            fleet["total_iv"] = _lsum(
                telemetry.summary["total_iv"] for telemetry in self.shards
            )
        return {"shards": shards, "fleet": fleet}

    # -- exports ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON with one process group per shard."""
        trace_events: list[dict] = []
        for telemetry in self.shards:
            # The pid carries the shard identity in this format, so the
            # records go out as emitted, without the merged view's tag.
            shard_trace = to_chrome_trace(
                telemetry.records,
                pid=FLEET_PID_BASE + telemetry.shard,
                process_name=f"shard {telemetry.shard}",
            )
            trace_events.extend(shard_trace["traceEvents"])
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def check(self) -> list:
        """Audit the fleet: per-shard invariants + cross-shard rules.

        Delegates to
        :meth:`~repro.obs.checker.TraceChecker.check_fleet`; returns the
        violation list (empty == clean).
        """
        from repro.obs.checker import TraceChecker

        return TraceChecker().check_fleet(self.records, self.snapshot())
