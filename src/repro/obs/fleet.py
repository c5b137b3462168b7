"""Fleet telemetry: cross-process trace collection.

The sharded runtimes (EXT5's spawned workers, and any future multi-process
serving tier) are observability black boxes by default: lifecycle events
and drop counters die with the worker.  This module ships them home.

Each shard worker traces its run on its own
:class:`~repro.sim.trace.Tracer` with a
:class:`~repro.obs.checker.TraceChecker` fold attached, and returns a
:class:`ShardTelemetry` in its result: the records as emitted, the shard's
scheduler totals and the fold's :class:`~repro.obs.checker.ShardAudit`
(violations, record and ledger counts, left-to-right ledger IV/CL sums,
query ids) — in process with ``executor="serial"``, pickled through the
pool's result with ``"process"``.  The shard audits its own trace where
it is made, so nothing in the parent walks the records to audit them.  At
join, the parent hands those telemetries to :class:`FleetCollector`, which
keeps them as emitted — no copy, no shard tag — and derives

* **one canonical order** — per-shard streams merged into a stable global
  time order (ties broken by shard index, then per-shard emit order);
* **one fleet registry**, on demand — a single
  :class:`~repro.obs.live.LiveRegistry` fed the records in that merged
  order, so it *is* the union fold, not an approximation of it;
* **one fleet snapshot** — per-shard panels built from the summaries and
  audits (including each shard's ``dropped_events``) plus fleet totals
  whose IV/latency sums are *bit-exact* left-to-right sums of the
  per-shard values;
* **one audit** — :meth:`TraceChecker.check_fleet
  <repro.obs.checker.TraceChecker.check_fleet>` reports each shard's
  verdict and applies the cross-shard rules (ownership, conservation) to
  the audits;
* **one chrome://tracing export** with one process group per shard
  (:meth:`FleetCollector.chrome_trace`).
"""

from __future__ import annotations

import heapq
import itertools
import typing
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs.export import to_chrome_trace
from repro.sim.trace import TraceRecord

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.checker import ShardAudit
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
    """Everything one shard shipped home: its trace, totals and audit."""

    shard: int
    #: Trace records in emit order, as the shard's tracer emitted them.
    records: list[TraceRecord]
    summary: dict
    #: The shard's checker fold over those records, finished.
    audit: ShardAudit

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

    # -- the fleet registry -------------------------------------------------

    @property
    def registry(self) -> "LiveRegistry":
        """The fleet registry: one :class:`~repro.obs.live.LiveRegistry`
        fed every shard's records as emitted, in :meth:`_merged` order.

        Folded on first read only.
        """
        if self._registry is None:
            from repro.obs.live import LiveRegistry

            registry = LiveRegistry()
            for _shard, record in self._merged():
                registry.observe(record)
            self._registry = registry
        return self._registry

    # -- the fleet snapshot -------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-ready fleet view: per-shard panels + bit-exact totals.

        ``shards`` keeps every per-shard summary (scheduler totals,
        ``dropped_events``) with the record count and ledger sums of the
        shard's audit; ``fleet`` holds the totals, each a left-to-right sum
        over shards in shard order (:func:`_lsum`), which ``check_fleet``
        audits bit-exactly.  No record is read.  The fleet registry is not
        part of it: a caller that wants it reads :attr:`registry`.
        """
        shards = []
        for telemetry in self.shards:
            audit = telemetry.audit
            shards.append({
                "shard": telemetry.shard,
                "records": audit.records,
                "dropped_events": telemetry.dropped_events,
                **{
                    key: value
                    for key, value in telemetry.summary.items()
                    if key != "dropped_events"
                },
                "ledger_entries": audit.ledger_entries,
                "ledger_iv": audit.ledger_iv,
                "ledger_cl": audit.ledger_cl,
            })
        fleet = {
            "shards": len(self.shards),
            "records": sum(panel["records"] for panel in shards),
            "dropped_events": sum(panel["dropped_events"] for panel in shards),
            "ledger_entries": sum(panel["ledger_entries"] for panel in shards),
            "ledger_iv": _lsum(panel["ledger_iv"] for panel in shards),
            "ledger_cl": _lsum(panel["ledger_cl"] for panel in shards),
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
            # The pid carries the shard identity in this format.
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
        :meth:`~repro.obs.checker.TraceChecker.check_fleet` with the
        shards' audits and the snapshot; returns the violation list (empty
        == clean).  No record is read.
        """
        from repro.obs.checker import TraceChecker

        return TraceChecker().check_fleet(self.shards, self.snapshot())
