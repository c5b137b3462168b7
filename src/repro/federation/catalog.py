"""Catalog: base tables, replicas and their synchronization schedules.

The paper's hybrid architecture keeps base tables ``T1..Tn`` at remote
servers and "a set of periodically synchronized replicas" at the local DSS
server.  Synchronizations are *pre-scheduled* (Figure 1: "multiple
pre-scheduled synchronization cycles"), which is what lets the optimizer
explore plans at *future* synchronization points.  A :class:`SyncSchedule`
is therefore a lazily-extended, deterministic timeline of completion
instants that both the optimizer (look-ahead) and the simulation (actual
sync events) share.
"""

from __future__ import annotations

import bisect
import itertools

from repro.errors import CatalogError
from repro.sim.streams import DeterministicStream, RandomStream

__all__ = [
    "LOCAL_SITE_ID",
    "TableDef",
    "SyncSchedule",
    "StreamSyncSchedule",
    "FixedSyncSchedule",
    "SharedSyncFeed",
    "Replica",
    "Catalog",
]

#: Site id reserved for the local federation server.
LOCAL_SITE_ID = -1


class TableDef:
    """A base table living at one remote site."""

    def __init__(
        self,
        name: str,
        site: int,
        row_count: int,
        row_bytes: int = 64,
    ) -> None:
        if row_count < 0:
            raise CatalogError(f"table {name!r} has negative row count")
        if row_bytes <= 0:
            raise CatalogError(f"table {name!r} needs positive row bytes")
        if site < 0:
            raise CatalogError(f"table {name!r} has invalid site {site}")
        self.name = name
        self.site = site
        self.row_count = int(row_count)
        self.row_bytes = int(row_bytes)

    @property
    def size_bytes(self) -> int:
        """Approximate table size."""
        return self.row_count * self.row_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TableDef({self.name!r}, site={self.site}, rows={self.row_count})"


class SyncSchedule:
    """A monotone timeline of synchronization completion instants.

    Subclasses fill :meth:`_extend_to`; the public API answers the two
    questions the optimizer asks: what was the last completion at or before
    ``t``, and when is the next one after ``t``.
    """

    #: How far past the queried time the lazy extension reaches, so repeated
    #: nearby queries rarely re-extend.
    EXTEND_SLACK = 1.0

    def __init__(self) -> None:
        self._times: list[float] = []
        self._horizon = 0.0

    # -- subclass hook ---------------------------------------------------

    def _extend_to(self, horizon: float) -> None:
        """Append completion instants so the timeline covers ``horizon``."""
        raise NotImplementedError

    def _append(self, time: float) -> None:
        if self._times and time < self._times[-1]:
            raise CatalogError("sync schedule times must be non-decreasing")
        self._times.append(time)
        self._horizon = max(self._horizon, time)

    def _ensure(self, time: float) -> None:
        if time == float("inf"):
            raise CatalogError("cannot extend a sync schedule to infinity")
        if time + self.EXTEND_SLACK > self._horizon:
            self._extend_to(time + self.EXTEND_SLACK)

    # -- queries -----------------------------------------------------------

    def last_completion_at_or_before(self, time: float) -> float | None:
        """Most recent completion ≤ ``time``, or ``None`` if none yet."""
        self._ensure(time)
        index = bisect.bisect_right(self._times, time)
        if index == 0:
            return None
        return self._times[index - 1]

    def next_completion_after(self, time: float) -> float:
        """First completion strictly after ``time``."""
        self._ensure(time)
        index = bisect.bisect_right(self._times, time)
        while index >= len(self._times):
            self._ensure(self._horizon + max(self.EXTEND_SLACK, 1.0))
            index = bisect.bisect_right(self._times, time)
        return self._times[index]

    def completions_between(self, start: float, end: float) -> list[float]:
        """All completions in ``(start, end]``."""
        if end < start:
            raise CatalogError(f"bad interval ({start}, {end}]")
        self._ensure(end)
        lo = bisect.bisect_right(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return self._times[lo:hi]

    def completions_through(self, time: float) -> list[float]:
        """Materialise the timeline through ``time``; return the live list.

        The returned list is the schedule's internal sorted array.  It is
        append-only — callers may hold the reference and ``bisect`` it
        directly for any instant ≤ ``time``, which is what lets the MQO
        fast path resolve replica freshness with pure array arithmetic
        instead of per-call catalog lookups.  Callers must not mutate it.
        """
        self._ensure(time)
        return self._times


class StreamSyncSchedule(SyncSchedule):
    """Independent schedule: gaps drawn from a random stream (or periodic).

    With a :class:`~repro.sim.streams.DeterministicStream` this is the
    classic fixed synchronization cycle of Figure 4; with an
    ``ExponentialStream`` it matches the paper's simulation setup.
    """

    def __init__(self, stream: RandomStream, offset: float = 0.0) -> None:
        super().__init__()
        if offset < 0:
            raise CatalogError(f"offset must be >= 0, got {offset}")
        self._stream = stream
        self._next = offset if offset > 0 else stream.sample()

    @classmethod
    def periodic(cls, period: float, offset: float | None = None) -> "StreamSyncSchedule":
        """Fixed-cycle schedule: completions at offset, offset+period, ..."""
        if period <= 0:
            raise CatalogError(f"period must be > 0, got {period}")
        return cls(DeterministicStream(period), offset=offset if offset else period)

    def _extend_to(self, horizon: float) -> None:
        while self._horizon <= horizon:
            self._append(self._next)
            gap = self._stream.sample()
            self._next += max(gap, 1e-9)  # zero gaps would stall extension


class FixedSyncSchedule(SyncSchedule):
    """An explicit, finite list of completion times (repeating the last gap).

    Used by worked examples (Figure 4's hand-specified timelines) and tests.
    """

    def __init__(self, times: list[float], tail_period: float | None = None) -> None:
        super().__init__()
        if not times:
            raise CatalogError("FixedSyncSchedule needs at least one time")
        ordered = sorted(set(times))  # same-instant syncs collapse to one
        if ordered[0] < 0:
            raise CatalogError("sync times must be >= 0")
        if tail_period is not None and tail_period <= 0:
            raise CatalogError("tail_period must be > 0")
        if tail_period is None:
            gaps = [b - a for a, b in zip(ordered, ordered[1:])]
            tail_period = gaps[-1] if gaps and gaps[-1] > 0 else max(ordered[-1], 1.0)
        self._tail_period = tail_period
        for time in ordered:
            self._append(time)

    def _extend_to(self, horizon: float) -> None:
        while self._horizon <= horizon:
            self._append(self._times[-1] + self._tail_period)


class SharedSyncFeed:
    """A system-wide synchronization budget shared by many replicas.

    Each global sync event (gaps drawn from ``stream``) refreshes exactly
    one member replica, round-robin.  This models a replication manager
    whose total throughput — not each table's — is fixed, and is the Fq:Fs
    interpretation under which the paper's Figure 5 crossover (Data
    Warehouse overtaking Federation only at 1:20) is reproducible; see
    DESIGN.md.
    """

    class _MemberSchedule(SyncSchedule):
        def __init__(self, feed: "SharedSyncFeed") -> None:
            super().__init__()
            self._feed = feed

        def _extend_to(self, horizon: float) -> None:
            self._feed._pump(self, horizon)

        def _feed_append(self, time: float) -> None:
            self._append(time)

    def __init__(self, stream: RandomStream) -> None:
        self._stream = stream
        self._members: list[SharedSyncFeed._MemberSchedule] = []
        self._turn = itertools.cycle([])  # replaced when members register
        self._clock = 0.0
        self._started = False

    def member(self) -> SyncSchedule:
        """Register and return one member replica's schedule."""
        if self._started:
            raise CatalogError("cannot add members after the feed started")
        schedule = SharedSyncFeed._MemberSchedule(self)
        self._members.append(schedule)
        return schedule

    def _pump(self, requester: "SharedSyncFeed._MemberSchedule", horizon: float) -> None:
        if not self._started:
            self._turn = itertools.cycle(self._members)
            self._started = True
        # Extend globally until the *requesting* member covers the horizon;
        # every member advances together so look-aheads stay consistent.
        guard = 0
        while requester._horizon <= horizon:
            self._clock += max(self._stream.sample(), 1e-9)
            target = next(self._turn)
            target._feed_append(self._clock)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - runaway guard
                raise CatalogError("shared sync feed failed to reach horizon")


class Replica:
    """A local replica of a base table with its synchronization schedule."""

    def __init__(
        self,
        table: TableDef,
        schedule: SyncSchedule,
        initial_timestamp: float = 0.0,
    ) -> None:
        if initial_timestamp < 0:
            raise CatalogError("initial timestamp must be >= 0")
        self.table = table
        self.schedule = schedule
        self.initial_timestamp = float(initial_timestamp)
        self.sync_count = 0  # maintained by the replication manager
        # Runtime-applied sync record (fault injection).  ``None`` means the
        # published schedule *is* reality — the default, bit-identical to
        # the pre-fault-injection behaviour.  A replication manager running
        # under a fault plan enables tracking and records the syncs
        # that actually land, which may skip or trail the schedule.
        self._applied: list[float] | None = None

    @property
    def name(self) -> str:
        """The replicated table's name."""
        return self.table.name

    @property
    def runtime_tracking(self) -> bool:
        """Whether applied syncs (not the schedule) define realized freshness."""
        return self._applied is not None

    def enable_runtime_tracking(self) -> None:
        """Start recording actually-applied syncs (fault-injection mode)."""
        if self._applied is None:
            self._applied = []

    def record_applied_sync(self, time: float) -> None:
        """Record one synchronization that actually landed at ``time``."""
        if self._applied is None:
            raise CatalogError(
                f"replica {self.name!r} is not tracking applied syncs; "
                "call enable_runtime_tracking() first"
            )
        if self._applied and time < self._applied[-1]:
            raise CatalogError("applied syncs must be recorded in time order")
        self._applied.append(time)

    def freshness_at(self, time: float) -> float:
        """Timestamp of the replica's data as of ``time``.

        This is the *published-schedule* answer — what a planner betting on
        the replication manager's promises should assume.  Use
        :meth:`realized_freshness_at` for what the replica actually holds.
        """
        last = self.schedule.last_completion_at_or_before(time)
        if last is None:
            return self.initial_timestamp
        return last

    def realized_freshness_at(self, time: float) -> float:
        """Timestamp of the data the replica *actually* holds at ``time``.

        Identical to :meth:`freshness_at` unless runtime tracking is on,
        in which case only syncs the replication manager really applied
        (none skipped, delays honoured) count.
        """
        if self._applied is None:
            return self.freshness_at(time)
        index = bisect.bisect_right(self._applied, time)
        if index == 0:
            return self.initial_timestamp
        return self._applied[index - 1]

    def next_sync_after(self, time: float) -> float:
        """When the next synchronization of this replica completes."""
        return self.schedule.next_completion_after(time)

    def staleness_at(self, time: float) -> float:
        """How old the replica's data is at ``time``."""
        return max(0.0, time - self.freshness_at(time))

    def completions_through(self, time: float) -> list[float]:
        """The schedule's materialised sorted completion array through ``time``.

        See :meth:`SyncSchedule.completions_through` — the list is live and
        append-only; ``bisect`` it for any instant ≤ ``time``.
        """
        return self.schedule.completions_through(time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Replica({self.name!r})"


class Catalog:
    """All tables and replicas known to the DSS."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}
        self._replicas: dict[str, Replica] = {}

    # -- registration --------------------------------------------------------

    def add_table(self, table: TableDef) -> TableDef:
        """Register a base table."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        return table

    def add_replica(
        self,
        table_name: str,
        schedule: SyncSchedule,
        initial_timestamp: float = 0.0,
    ) -> Replica:
        """Register a replica of an existing base table."""
        table = self.table(table_name)
        if table_name in self._replicas:
            raise CatalogError(f"replica of {table_name!r} already registered")
        replica = Replica(table, schedule, initial_timestamp)
        self._replicas[table_name] = replica
        return replica

    # -- lookups ---------------------------------------------------------------

    def table(self, name: str) -> TableDef:
        """A base table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"catalog has no table {name!r}")

    def replica(self, name: str) -> Replica | None:
        """The replica of a table, or ``None`` if not replicated."""
        return self._replicas.get(name)

    def has_replica(self, name: str) -> bool:
        """Whether a table has a local replica."""
        return name in self._replicas

    @property
    def table_names(self) -> list[str]:
        """All base tables, sorted."""
        return sorted(self._tables)

    @property
    def replicated_tables(self) -> list[str]:
        """All replicated tables, sorted."""
        return sorted(self._replicas)

    @property
    def replicas(self) -> list[Replica]:
        """All replicas, sorted by table name."""
        return [self._replicas[name] for name in self.replicated_tables]

    def sites_of(self, table_names) -> set[int]:
        """Distinct remote sites hosting the given tables."""
        return {self.table(name).site for name in table_names}

    def validate_query_tables(self, table_names) -> None:
        """Raise if any of the given tables is unknown."""
        for name in table_names:
            self.table(name)
