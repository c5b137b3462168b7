"""Simulation clock.

Time in this package is a continuous ``float`` measured in **minutes**, the
natural unit for the paper's near-real-time decision support band (2–30
minutes).  The clock only ever moves forward; attempts to move it backwards
indicate a kernel bug and raise :class:`~repro.errors.SchedulingError`.

Not to be confused with the *event-clock protocol*
:class:`repro.sim.clocks.Clock`, the sim/wall time-source seam of the
online scheduler.
"""

from __future__ import annotations

from repro.errors import SchedulingError

__all__ = ["SimulationClock"]


class SimulationClock:
    """A monotonically advancing simulation clock."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SchedulingError(f"clock cannot start before time 0, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in minutes."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises
        ------
        SchedulingError
            If ``time`` lies in the past.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot move clock backwards from {self._now} to {time}"
            )
        self._now = float(time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulationClock(now={self._now:.4f})"

