"""The discrete-event simulator core.

:class:`Simulator` keeps its triggered events on a
:class:`~repro.sim.timeline.Timeline` — the same heap, FIFO tie rule and
push validation the online scheduler's clocks use — and moves from event
to event, the classic event-driven world view of JavaSim, which the
paper's evaluation uses to "simulate the distributed processing effect".
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.timeline import Timeline

__all__ = ["Simulator"]


class Simulator:
    """An event-driven simulation kernel.

    Typical use::

        sim = Simulator()

        def customer(sim):
            yield sim.timeout(5.0)
            print("done at", sim.now)

        sim.process(customer(sim))
        sim.run(until=100.0)
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SchedulingError(f"simulation cannot start before time 0, got {start}")
        self._timeline = Timeline()
        self._timeline.advance_to(start)

    @property
    def now(self) -> float:
        """Current simulation time in minutes."""
        return self._timeline.now

    # -- event factories ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that fires ``delay`` minutes from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, list(events))

    def any_of(self, events) -> AnyOf:
        """Event that fires once any event in ``events`` has fired."""
        return AnyOf(self, list(events))

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SchedulingError(f"call_at({time}) is in the past (now={self.now})")
        event = self.timeout(time - self.now)
        event.callbacks.append(lambda _event: fn())
        return event

    # -- scheduling --------------------------------------------------------

    def schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` minutes ahead.

        A negative, NaN or infinite ``delay`` raises
        :class:`~repro.errors.SchedulingError` (the timeline validates).
        """
        self._timeline.push(self.now + delay, "", event)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Deliver the single next event."""
        if not self._timeline:
            raise SimulationError("step() called on an empty event queue")
        _time, _tag, event = self._timeline.pop()
        event._deliver()

    def run(self, until: float | Event | None = None) -> None:
        """Run until the queue drains, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None`` (or ``inf``) runs to queue exhaustion.  A finite
            ``float`` runs every event due by then and leaves the clock
            exactly there.  An :class:`Event` runs until that event has
            been processed.
        """
        timeline = self._timeline
        if isinstance(until, Event):
            stop = until
            if stop.processed:
                return
            done: list[bool] = []
            stop.callbacks.append(lambda _event: done.append(True))
            while not done:
                if not timeline:
                    raise SimulationError(
                        f"simulation ran out of events before {stop!r} fired"
                    )
                self.step()
            return

        deadline = float("inf") if until is None else float(until)
        if deadline < self.now:
            raise SchedulingError(
                f"run(until={deadline}) is in the past (now={self.now})"
            )
        while timeline and timeline.peek_time() <= deadline:
            self.step()
        if deadline != float("inf"):
            timeline.advance_to(deadline)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.4f}, queued={len(self._timeline)})"
