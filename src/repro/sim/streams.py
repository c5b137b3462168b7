"""Random variate streams, modelled after JavaSim's ``*Stream`` classes.

The paper simulates query arrivals and replica synchronization with
JavaSim's ``ExponentialStream``.  This module provides that class and a
deterministic stream for fixed periodic schedules, on top of
:class:`repro.sim.rng.RandomSource`.  Both return **non-negative**
inter-event times.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigError
from repro.sim.rng import RandomSource

__all__ = ["RandomStream", "ExponentialStream", "DeterministicStream"]


class RandomStream(ABC):
    """A stream of random variates with a known mean."""

    def __init__(self, source: RandomSource) -> None:
        self._source = source
        self._count = 0

    @abstractmethod
    def sample(self) -> float:
        """Draw the next variate from the stream."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """The theoretical mean of the stream."""

    @property
    def count(self) -> int:
        """How many variates have been drawn so far."""
        return self._count

    def _tick(self) -> None:
        self._count += 1

    def __iter__(self):
        while True:
            yield self.sample()


class ExponentialStream(RandomStream):
    """Exponentially distributed stream with the given ``mean``.

    This mirrors JavaSim's ``ExponentialStream(mean)`` used by the paper to
    drive both the query arrival process and the synchronization process.
    """

    def __init__(self, mean: float, source: RandomSource) -> None:
        if mean <= 0:
            raise ConfigError(f"ExponentialStream mean must be > 0, got {mean}")
        super().__init__(source)
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self) -> float:
        self._tick()
        return self._source.expovariate(1.0 / self._mean)


class DeterministicStream(RandomStream):
    """A stream that always returns the same value (periodic schedules)."""

    def __init__(self, value: float, source: RandomSource | None = None) -> None:
        if value < 0:
            raise ConfigError("DeterministicStream value must be >= 0")
        super().__init__(source or RandomSource(0, "deterministic"))
        self._value = float(value)

    @property
    def mean(self) -> float:
        return self._value

    def sample(self) -> float:
        self._tick()
        return self._value
