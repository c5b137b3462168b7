"""Events — the unit of scheduling in the discrete-event kernel.

An :class:`Event` starts *pending*, is *triggered* exactly once (with a value
or an exception) and is then *processed* by the simulator, which invokes its
callbacks.  Processes wait on events by ``yield``-ing them.
"""

from __future__ import annotations

import typing
from collections.abc import Callable, Sequence

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulator

__all__ = ["Event", "Timeout", "AllOf", "AnyOf"]

_UNSET = object()


class Event:
    """A one-shot occurrence other simulation entities can wait on."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: object = _UNSET
        self._pending_value: object = None
        self._exception: BaseException | None = None
        self._defused = False
        self._processed = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value or an exception."""
        return self._value is not _UNSET or self._exception is not None

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self):
        """The success value; raises if the event failed or is pending."""
        if self._exception is not None:
            raise self._exception
        if self._value is _UNSET:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or ``None``."""
        return self._exception

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    # -- triggering ----------------------------------------------------

    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully and schedule callback delivery."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self.sim.schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail needs an exception instance")
        self._exception = exception
        self.sim.schedule_event(self)
        return self

    def _deliver(self) -> None:
        """Run callbacks; called by the simulator when the event fires."""
        if self._processed:
            return
        if not self.triggered:
            # Events scheduled with a delay (timeouts) trigger at delivery.
            self._value = self._pending_value
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused:
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or type(self).__name__
        return f"<{label} triggered={self.triggered}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` minutes.

    The simulator's timeline rejects a negative, NaN or infinite ``delay``.
    """

    def __init__(self, sim: "Simulator", delay: float, value=None) -> None:
        super().__init__(sim, name=f"Timeout({delay:g})")
        self.delay = float(delay)
        self._pending_value = value
        sim.schedule_event(self, delay=delay)


class _Condition(Event):
    """Base for events composed of several child events."""

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim, name=type(self).__name__)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from two simulators")
        self._pending = sum(1 for event in self.events if not event.triggered)
        if self._satisfied():
            self.succeed(self._collect())
        else:
            for event in self.events:
                if not event.triggered:
                    event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self):
        return {event: event.value for event in self.events if event.ok}


class AllOf(_Condition):
    """Fires when *all* child events have fired."""

    def _satisfied(self) -> bool:
        return self._pending == 0


class AnyOf(_Condition):
    """Fires as soon as *any* child event has fired."""

    def _satisfied(self) -> bool:
        return self._pending < len(self.events)
