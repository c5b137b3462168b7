"""The sim/wall clock seam: one event-clock protocol, two time sources.

The online scheduler (:mod:`repro.mqo.online`) is a state machine over a
stream of timed events — arrivals, window closes, completions.  Nothing in
its admission/shed/window/dispatch logic cares *where* time comes from,
only that events pop in deadline order with FIFO ties.  This module makes
that seam explicit:

* :class:`Clock` — the protocol: schedule events (``push``), inspect the
  frontier (``peek_time`` / truthiness), read the current stream time
  (``now``) and a monotonic wall-seconds reading (``perf_seconds``, used
  for re-optimization accounting so sim and wall runs book it exactly
  once).
* :class:`SimClock` — wraps the deterministic
  :class:`~repro.sim.timeline.Timeline` heap; ``pop`` advances simulated
  time instantly.  Replaying a recorded arrival trace through a
  ``SimClock`` reproduces a wall run's decision sequence exactly
  (``tests/test_clock_equivalence.py`` proves it).
* :class:`WallClock` — the same heap bound to the process's monotonic
  timer: ``wait_pop`` (a coroutine) sleeps until the earliest deadline is
  *really* due, and a ``push`` from another task (an HTTP submission)
  wakes the sleeper early.  One stream minute equals
  ``seconds_per_minute`` wall seconds, so services and benches can run
  the paper's minutes-scale band compressed onto real hardware.

Time is in **stream minutes** everywhere (the unit the paper's 2–30 minute
near-real-time band is stated in); only ``perf_seconds`` speaks seconds.
"""

from __future__ import annotations

import typing
from time import monotonic, perf_counter
from typing import Any

from repro.errors import SimulationError
from repro.sim.timeline import Timeline

__all__ = ["Clock", "SimClock", "WallClock"]


@typing.runtime_checkable
class Clock(typing.Protocol):
    """What the online scheduling loop needs from a time source."""

    @property
    def now(self) -> float:
        """Current stream time (minutes)."""
        ...  # pragma: no cover - protocol

    def push(self, time: float, tag: str, payload: Any = None) -> None:
        """Schedule an event at stream time ``time``."""
        ...  # pragma: no cover - protocol

    def peek_time(self) -> float:
        """Deadline of the earliest pending event (IndexError if empty)."""
        ...  # pragma: no cover - protocol

    def perf_seconds(self) -> float:
        """A monotonic wall-seconds reading (re-optimization accounting)."""
        ...  # pragma: no cover - protocol

    def __bool__(self) -> bool: ...  # pragma: no cover - protocol

    def __len__(self) -> int: ...  # pragma: no cover - protocol


class SimClock:
    """Simulated time: a :class:`Timeline` heap popped without waiting.

    ``now`` is the time of the latest pop — the online loop's logical
    "current instant".  ``perf_seconds`` reads ``perf_counter`` so that
    re-optimization cost is measured in real seconds *outside* the
    simulated stream, exactly as the pre-refactor scheduler did.
    """

    __slots__ = ("_timeline",)

    def __init__(self, timeline: Timeline | None = None) -> None:
        self._timeline = timeline if timeline is not None else Timeline()

    @property
    def now(self) -> float:
        return self._timeline.now

    def push(self, time: float, tag: str, payload: Any = None) -> None:
        self._timeline.push(time, tag, payload)

    def pop(self) -> tuple[float, str, Any]:
        """Advance to and return the earliest event."""
        return self._timeline.pop()

    def peek_time(self) -> float:
        return self._timeline.peek_time()

    def perf_seconds(self) -> float:
        return perf_counter()

    def __len__(self) -> int:
        return len(self._timeline)

    def __bool__(self) -> bool:
        return bool(self._timeline)


class WallClock:
    """Real time: the same event heap bound to the monotonic timer.

    Stream minutes map onto wall seconds through ``seconds_per_minute``
    (e.g. ``0.01`` compresses one stream minute into 10 ms — useful for
    benches and smoke tests; ``60.0`` is honest real time).  ``now`` is
    continuous: it reads the monotonic timer, so two submissions a few
    microseconds apart get distinct, ordered stream stamps.

    ``wait_pop`` is the asyncio driver primitive: it sleeps until the
    earliest deadline is due (waking early when a concurrent ``push``
    schedules something sooner), pops it, and returns it.  After
    :meth:`stop`, ``wait_pop`` drains remaining events and then returns
    ``None`` instead of sleeping forever on an empty heap.

    ``perf_seconds`` reads the *same* monotonic base that drives ``now``,
    so wall-run re-optimization time is a slice of stream time — booked
    exactly once, never both as "reopt" and again as extra latency.

    asyncio is imported when a ``WallClock`` is built, not with this
    module: simulated runs never load it (nor ``ssl`` behind it).
    """

    __slots__ = ("_timeline", "seconds_per_minute", "_epoch", "_wake", "_stopped")

    def __init__(
        self,
        seconds_per_minute: float = 1.0,
        start_at: float = 0.0,
        timeline: Timeline | None = None,
    ) -> None:
        if seconds_per_minute <= 0:
            raise SimulationError(
                f"seconds_per_minute must be > 0, got {seconds_per_minute}"
            )
        if start_at < 0:
            raise SimulationError(f"start_at must be >= 0, got {start_at}")
        self._timeline = timeline if timeline is not None else Timeline()
        self.seconds_per_minute = seconds_per_minute
        # ``start_at`` re-anchors stream time: a resumed service's clock
        # must continue from the crashed run's frontier, not restart at
        # zero (events restored behind ``now`` would be scheduled in the
        # past and pop in a burst, which is exactly what we want — the
        # backlog is overdue).
        self._epoch = monotonic() - start_at * seconds_per_minute
        import asyncio

        self._wake = asyncio.Event()
        self._stopped = False

    @property
    def now(self) -> float:
        """Stream minutes elapsed since the clock's epoch."""
        return (monotonic() - self._epoch) / self.seconds_per_minute

    def push(self, time: float, tag: str, payload: Any = None) -> None:
        self._timeline.push(time, tag, payload)
        self._wake.set()

    def peek_time(self) -> float:
        return self._timeline.peek_time()

    def perf_seconds(self) -> float:
        return monotonic()

    def stop(self) -> None:
        """Drain mode: ``wait_pop`` stops sleeping and returns ``None`` empty.

        After ``stop`` the remaining events pop *immediately* in heap
        order (their scheduled times are returned unchanged, so logical
        time stays intact) — a shutting-down service should not wait out
        its last rolling-window deadline in real time.
        """
        self._stopped = True
        self._wake.set()

    async def wait_pop(self) -> tuple[float, str, Any] | None:
        """Sleep until the earliest event is due, pop and return it.

        Returns ``None`` when the clock was :meth:`stop`-ped and no
        events remain.  A concurrent ``push`` (e.g. an HTTP submission)
        interrupts the sleep so a newly scheduled earlier event is
        honored.
        """
        import asyncio

        while True:
            if self._stopped:
                return self._timeline.pop() if self._timeline else None
            if self._timeline:
                due = self._epoch + self.peek_time() * self.seconds_per_minute
                delay = due - monotonic()
                if delay <= 0:
                    return self._timeline.pop()
                self._wake.clear()
                # The deadline sets the event a push sets; both re-check.
                timer = asyncio.get_running_loop().call_later(delay, self._wake.set)
                try:
                    await self._wake.wait()
                finally:
                    timer.cancel()
            else:
                if self._stopped:
                    return None
                self._wake.clear()
                if self._timeline:  # pushed between the check and the clear
                    continue
                await self._wake.wait()

    def __len__(self) -> int:
        return len(self._timeline)

    def __bool__(self) -> bool:
        return bool(self._timeline)
