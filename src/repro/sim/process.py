"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield``-ed value must be an
:class:`~repro.sim.event.Event`; the process suspends until that event fires
and resumes with the event's value (or the event's exception thrown into the
generator, allowing ``try/except`` around waits).

A :class:`Process` is itself an event that fires when the generator returns,
so processes can wait on each other — the idiom the federation executor uses
to join the per-site legs of a distributed query.
"""

from __future__ import annotations

import typing
from collections.abc import Generator

from repro.errors import ProcessError
from repro.sim.event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running simulation activity driven by a generator."""

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not isinstance(generator, Generator):
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or generator.__name__)
        self._generator = generator
        # Kick the process off at the current instant.
        bootstrap = Event(sim, name=f"init:{self.name}")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self.triggered

    # -- generator driving -------------------------------------------------

    def _resume(self, event: Event) -> None:
        if event.ok:
            self._step(event.value, throw=False)
        else:
            event.defuse()
            self._step(event.exception, throw=True)

    def _step(self, payload, throw: bool) -> None:
        try:
            if throw:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(target, Event):
            error = ProcessError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (timeout, resource request, ...)"
            )
            self._generator.close()
            self.fail(error)
            return
        if target.sim is not self.sim:
            self._generator.close()
            self.fail(ProcessError("process yielded an event from another simulator"))
            return

        if target.triggered:
            # Already fired: resume on the next delivery cycle to preserve
            # causal ordering with other callbacks of that instant.
            bounce = Event(self.sim, name=f"bounce:{self.name}")
            bounce.callbacks.append(lambda _e: self._resume(target))
            bounce.succeed()
        else:
            target.callbacks.append(self._resume)
