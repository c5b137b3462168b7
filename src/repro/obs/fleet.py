"""Fleet telemetry: cross-process trace collection.

The sharded runtimes (EXT5's spawned workers, and any future multi-process
serving tier) are observability black boxes by default: lifecycle events
and drop counters die with the worker.  This module ships them home.

Each shard worker attaches a :class:`ShardSpoolWriter` to its per-shard
:class:`~repro.sim.trace.Tracer`: every emitted record is framed onto a
length-prefixed, CRC-guarded JSONL *spool* file — the exact ``D1`` framing
discipline of :mod:`repro.durable.journal`, reused so torn tails from a
killed worker are detected rather than half-parsed.  A shard ships
records, never derived state.  At join, the parent hands the spool paths
to :class:`FleetCollector`, which rebuilds

* **one canonical trace** — per-shard streams merged into a stable global
  time order (ties broken by shard index, then per-shard emit order), every
  record tagged ``shard=k`` in its detail, exportable to chrome://tracing
  with one process group per shard (:meth:`FleetCollector.chrome_trace`);
* **one fleet registry**, on demand — a single
  :class:`~repro.obs.live.LiveRegistry` fed the untagged records in that
  same merged order, so it *is* the union fold, not an approximation of it;
* **one fleet snapshot** — per-shard summaries (including each shard's
  ``dropped_events``) plus fleet totals whose IV/latency sums are
  *bit-exact* left-to-right sums of the per-shard values, which
  :meth:`TraceChecker.check_fleet <repro.obs.checker.TraceChecker.check_fleet>`
  re-derives from the trace and audits.

Frame kinds on the spool, in order: one ``fleet.header`` (shard identity,
schema version, metadata), any number of ``fleet.trace`` (one trace record
each), then at most one ``fleet.summary`` (scheduler totals), which must
be the last frame.

Layering note: this is the one place ``obs`` reaches *up* to
``durable.journal`` (ARCHITECTURE §11 documents the exception; the journal
module itself depends only on the stdlib and ``repro.errors``).
"""

from __future__ import annotations

import heapq
import typing
from dataclasses import dataclass, field

from repro.durable.journal import JournalWriter, read_journal
from repro.errors import SimulationError
from repro.obs.export import record_from_dict, record_to_dict, to_chrome_trace
from repro.sim.trace import TraceRecord

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import LiveRegistry
    from repro.sim.trace import Tracer

__all__ = [
    "FLEET_PID_BASE",
    "SPOOL_SCHEMA",
    "ShardSpoolWriter",
    "ShardTelemetry",
    "read_spool",
    "FleetCollector",
]

#: Spool frame schema version (bump on incompatible frame changes).  A
#: spool is read at join and never kept, so only the current one is read.
SPOOL_SCHEMA = 2

#: Chrome-trace pid of shard 0; shard *k* renders as process ``base + k``.
#: Starts above pid 1 (the single-process simulation domain) and pid 2
#: (the wall-clock profiler) so fleet traces never collide with either.
FLEET_PID_BASE = 10

_HEADER = "fleet.header"
_TRACE = "fleet.trace"
_SUMMARY = "fleet.summary"


class ShardSpoolWriter:
    """Stream one shard's telemetry onto a D1-framed spool file.

    Write order is header first (enforced), then any number of trace
    frames, then optionally one summary frame (enforced by the reader).
    ``fsync_every`` defaults high: a spool is collected at *join*, not
    replayed after a crash, so durability of the tail buys nothing — the
    framing is reused for its torn-tail *detection*, not its recovery.
    """

    def __init__(
        self,
        path: str,
        shard: int,
        meta: dict | None = None,
        fsync_every: int = 10_000,
    ) -> None:
        if shard < 0:
            raise SimulationError(f"shard index must be >= 0, got {shard}")
        self.path = str(path)
        self.shard = shard
        self._journal = JournalWriter(path, fsync_every=fsync_every)
        self._journal.append({
            "kind": _HEADER,
            "schema": SPOOL_SCHEMA,
            "shard": shard,
            "meta": dict(meta or {}),
        })

    def attach(self, tracer: "Tracer") -> "ShardSpoolWriter":
        """Subscribe to every future record of ``tracer``; returns self."""
        tracer.subscribe(self.record)
        return self

    def record(self, record: TraceRecord) -> None:
        """Frame one trace record onto the spool."""
        self._journal.append({"kind": _TRACE, "record": record_to_dict(record)})

    def summary(self, **data) -> None:
        """Ship the shard's scheduler totals (call once, at shard end)."""
        self._journal.append({"kind": _SUMMARY, "data": data})

    def close(self) -> None:
        """Flush and close the spool."""
        self._journal.close()

    def __enter__(self) -> "ShardSpoolWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class ShardTelemetry:
    """Everything one shard shipped home: tagged trace + totals."""

    shard: int
    meta: dict = field(default_factory=dict)
    #: Trace records in emit order, each detail tagged ``shard=<index>``.
    records: list[TraceRecord] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def dropped_events(self) -> int:
        """Events the shard's tracer evicted before they could be spooled."""
        return int(self.summary.get("dropped_events", 0))


def read_spool(path: str) -> ShardTelemetry:
    """Strictly read one shard spool back into :class:`ShardTelemetry`.

    A torn tail or CRC mismatch raises (via the journal's strict reader):
    a spool is written by a worker that *joined successfully*, so unlike a
    crash journal an invalid byte here is a real bug, not an expected
    recovery state.  So does any frame out of the documented order — a
    second header, a second summary, or a trace frame after the summary.
    """
    frames = read_journal(path)
    if not frames or frames[0][0].get("kind") != _HEADER:
        raise SimulationError(f"spool {path} does not start with a fleet.header")
    header = frames[0][0]
    if header.get("schema") != SPOOL_SCHEMA:
        raise SimulationError(
            f"spool {path} has schema {header.get('schema')!r}, "
            f"expected {SPOOL_SCHEMA}"
        )
    shard = int(header["shard"])
    telemetry = ShardTelemetry(shard=shard, meta=dict(header.get("meta", {})))
    summary_at = None
    for payload, offset in frames[1:]:
        kind = payload.get("kind")
        if summary_at is not None and kind in (_TRACE, _SUMMARY):
            what = "second fleet.summary" if kind == _SUMMARY else kind
            raise SimulationError(
                f"spool {path}: {what} at offset {offset} after the "
                f"fleet.summary at offset {summary_at}"
            )
        if kind == _TRACE:
            record = record_from_dict(payload["record"])
            record.detail["shard"] = shard
            telemetry.records.append(record)
        elif kind == _SUMMARY:
            telemetry.summary = dict(payload["data"])
            summary_at = offset
        elif kind == _HEADER:
            raise SimulationError(
                f"spool {path}: duplicate header at offset {offset}"
            )
        else:
            raise SimulationError(
                f"spool {path}: unknown frame kind {kind!r} at offset {offset}"
            )
    return telemetry


def _untagged(record: TraceRecord) -> TraceRecord:
    """``record`` as its shard emitted it, without the collector's tag."""
    return TraceRecord(
        time=record.time,
        kind=record.kind,
        subject=record.subject,
        detail={key: value for key, value in record.detail.items() if key != "shard"},
    )


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
    """Merge per-shard telemetry spools into one canonical fleet view."""

    def __init__(self, shards: typing.Sequence[ShardTelemetry]) -> None:
        if not shards:
            raise SimulationError("FleetCollector needs at least one shard")
        self.shards = sorted(shards, key=lambda telemetry: telemetry.shard)
        seen = [telemetry.shard for telemetry in self.shards]
        if len(set(seen)) != len(seen):
            raise SimulationError(f"duplicate shard indices in fleet: {seen}")
        self._records: list[TraceRecord] | None = None
        self._registry: LiveRegistry | None = None

    @classmethod
    def from_paths(cls, paths: typing.Sequence[str]) -> "FleetCollector":
        """Collect spools written by joined shard workers."""
        return cls([read_spool(path) for path in paths])

    # -- the canonical trace ------------------------------------------------

    @property
    def records(self) -> list[TraceRecord]:
        """The merged fleet trace: global time order, stable within ties.

        Per-shard streams are individually time-monotone (the tracer
        enforces it), so a k-way heap merge on time yields a total order;
        ties keep shard-index order, then per-shard emit order — the same
        input always merges to the same output.
        """
        if self._records is None:
            self._records = list(
                heapq.merge(
                    *(telemetry.records for telemetry in self.shards),
                    key=lambda record: record.time,
                )
            )
        return self._records

    # -- the fleet registry -------------------------------------------------

    @property
    def registry(self) -> "LiveRegistry":
        """The fleet registry: one :class:`~repro.obs.live.LiveRegistry`
        fed every shard's records, untagged, in :attr:`records` order.

        Folded on first read only.  The shard tag is stripped because the
        registry parses ledger details through the strict
        ``IVLedgerEntry.from_dict``, which would count a tagged ledger
        record as malformed.
        """
        if self._registry is None:
            from repro.obs.live import LiveRegistry

            registry = LiveRegistry()
            for record in self.records:
                registry.observe(_untagged(record))
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
            # The exporter parses LEDGER details through the *strict*
            # IVLedgerEntry.from_dict; hand it records without the shard
            # tag (the pid carries the shard identity in this format).
            shard_trace = to_chrome_trace(
                [_untagged(record) for record in telemetry.records],
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
