"""Execution tracing for simulation runs.

A :class:`Tracer` records structured trace records — query submissions,
plan choices, sync completions, execution phases — with their simulation
timestamps, supporting both debugging ("why did this query wait?") and the
tests that assert causal ordering of system events.  Producers call
:meth:`Tracer.emit`; analysis goes through filters and the timeline
renderer.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.errors import SimulationError

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    time: float
    kind: str
    subject: str
    detail: dict = field(default_factory=dict)

    def format(self) -> str:
        """One line of timeline output."""
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        body = f"[{self.time:10.4f}] {self.kind:<12} {self.subject}"
        return f"{body} {extras}".rstrip()


class Tracer:
    """An append-only, time-ordered log of simulation events.

    Records are strictly time-ordered: :meth:`emit` raises
    :class:`~repro.errors.SimulationError` if the clock ever runs backwards
    (equal timestamps are fine — many events share a simulation instant).
    With a ``capacity``, the log is a sliding window over the most recent
    events: once full, each new record evicts the **oldest** retained one
    (drop-oldest, never drop-newest), and :attr:`dropped` counts the
    evictions.
    """

    def __init__(self, clock: Callable[[], float], capacity: int | None = None) -> None:
        """``clock`` supplies timestamps (usually ``lambda: sim.now``).

        ``capacity`` bounds memory: older records are dropped FIFO once the
        bound is reached (``None`` = unbounded).
        """
        if capacity is not None and capacity < 1:
            raise SimulationError("tracer capacity must be >= 1 or None")
        self._clock = clock
        # A bounded deque evicts the oldest record in O(1) as it appends.
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._dropped = 0
        self._last_time: float | None = None
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        self.enabled = True

    # -- producing ---------------------------------------------------------

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Deliver every future record to ``callback``, as it is emitted.

        Subscribers see records *live* — including ones a bounded tracer
        later evicts — which is what streaming consumers (the live metrics
        registry, SLO monitors) need: they never depend on the retained
        window.  A subscriber may itself emit (e.g. an SLO monitor opening
        an alert); the new record is delivered to every subscriber too.
        """
        self._subscribers.append(callback)

    def emit(self, kind: str, subject: str, **detail) -> None:
        """Record one event at the current simulation time.

        Raises :class:`SimulationError` when the clock reports a time
        earlier than the previous record's — traces must stay causally
        orderable even when producers misbehave.
        """
        if not self.enabled:
            return
        now = self._clock()
        if self._last_time is not None and now < self._last_time:
            raise SimulationError(
                f"trace time went backwards: {now} after {self._last_time} "
                f"(emitting {kind!r} for {subject!r})"
            )
        self._last_time = now
        record = TraceRecord(now, kind, subject, detail)
        if len(self._records) == self._records.maxlen:
            self._dropped += 1
        self._records.append(record)
        for callback in self._subscribers:
            callback(record)

    # -- consuming ------------------------------------------------------------

    @property
    def records(self) -> list[TraceRecord]:
        """All retained records (a copy), oldest first."""
        return list(self._records)

    @property
    def dropped(self) -> int:
        """How many records the capacity bound evicted."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._records)

    def filter(
        self,
        kind: str | None = None,
        subject: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> Iterator[TraceRecord]:
        """Iterate records matching every given criterion."""
        for record in self._records:
            if kind is not None and record.kind != kind:
                continue
            if subject is not None and record.subject != subject:
                continue
            if since is not None and record.time < since:
                continue
            if until is not None and record.time > until:
                continue
            yield record

    def timeline(self, **filter_kwargs) -> str:
        """A printable timeline of (filtered) records."""
        lines = [record.format() for record in self.filter(**filter_kwargs)]
        if self._dropped:
            lines.insert(0, f"... {self._dropped} earlier records dropped ...")
        return "\n".join(lines)

    def clear(self) -> None:
        """Forget everything recorded so far (and reset the time guard)."""
        self._records.clear()
        self._dropped = 0
        self._last_time = None
