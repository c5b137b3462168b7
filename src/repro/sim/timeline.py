"""The event heap: time-ordered, FIFO within an instant, validated.

Every scheduler in the package runs on this one heap: the discrete-event
:class:`~repro.sim.scheduler.Simulator` keeps one as its queue and clock,
and the online MQO loop (:mod:`repro.mqo.online`) pops one through
:class:`~repro.sim.clocks.SimClock` or
:class:`~repro.sim.clocks.WallClock` to interleave query arrivals, window
closes and analytic completions.

Entries at the same instant pop in push order (a monotonically increasing
sequence number breaks ties), so replays are deterministic and arrival
order is preserved exactly.

Pushes are validated: a NaN would poison heap comparisons (every
comparison against NaN is false, so ``heapq`` silently loses its
invariant and events pop in corrupted order), an infinite deadline can
never fire, and a time before the latest pop would schedule an event in
the past — replaying such a heap is no longer deterministic.  All three
raise :class:`~repro.errors.SchedulingError` at the push site, where the
bug is, instead of surfacing later as a scrambled replay.
:meth:`Timeline.advance_to` moves the frontier under the same rules.
"""

from __future__ import annotations

import heapq
import math
from typing import Any

from repro.errors import SchedulingError

__all__ = ["Timeline"]


class Timeline:
    """Min-heap of ``(time, tag, payload)`` events, FIFO within an instant."""

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0
        self._now: float | None = None  # time of the latest pop

    @property
    def now(self) -> float:
        """Time of the latest pop (0.0 before the first)."""
        return 0.0 if self._now is None else self._now

    def push(self, time: float, tag: str, payload: Any = None) -> None:
        """Schedule an event; same-time events pop in push order.

        Raises
        ------
        SchedulingError
            If ``time`` is NaN or infinite (heap order would corrupt /
            the event could never fire) or lies before the latest popped
            time (an event scheduled into the past breaks replay
            determinism).
        """
        time = float(time)
        if not math.isfinite(time):
            raise SchedulingError(
                f"cannot schedule {tag!r} at non-finite time {time!r}"
            )
        if self._now is not None and time < self._now:
            raise SchedulingError(
                f"cannot schedule {tag!r} at {time}: timeline already "
                f"advanced to {self._now}"
            )
        heapq.heappush(self._heap, (time, self._seq, tag, payload))
        self._seq += 1

    def pop(self) -> tuple[float, str, Any]:
        """Remove and return the earliest ``(time, tag, payload)`` event.

        Raises :class:`IndexError` when empty, like ``heapq``.
        """
        time, _seq, tag, payload = heapq.heappop(self._heap)
        self._now = time
        return time, tag, payload

    def peek_time(self) -> float:
        """Time of the earliest pending event (raises IndexError if empty)."""
        return self._heap[0][0]

    def advance_to(self, time: float) -> None:
        """Move the frontier to ``time`` without popping anything.

        Raises
        ------
        SchedulingError
            If ``time`` is NaN or infinite, or lies before the frontier.
        """
        time = float(time)
        if not math.isfinite(time):
            raise SchedulingError(f"cannot advance to non-finite time {time!r}")
        if self._now is not None and time < self._now:
            raise SchedulingError(
                f"cannot move the timeline backwards from {self._now} to {time}"
            )
        self._now = time

    def capture(self) -> dict:
        """A JSON-safe snapshot of the heap, tie-break counter and frontier.

        Sequence numbers are captured verbatim: same-time events must pop
        in their *original* push order after a restore, or a resumed run
        would diverge from the uninterrupted one on the first tie.
        """
        return {
            "now": self._now,
            "seq": self._seq,
            "heap": [list(entry) for entry in sorted(self._heap)],
        }

    def restore(self, state: dict) -> None:
        """Rebuild the heap exactly as :meth:`capture` saw it."""
        self._now = state["now"]
        self._seq = int(state["seq"])
        self._heap = [
            (float(time), int(seq), str(tag), payload)
            for time, seq, tag, payload in state["heap"]
        ]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
