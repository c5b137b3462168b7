"""Statistics collection for simulation runs.

:class:`Monitor` accumulates sample statistics online (Welford's algorithm);
it is what the experiment harness uses to report mean information values
and latencies.

Memory semantics: a monitor's aggregates (count, mean, variance, extrema)
are always O(1).  Raw-sample retention is **opt-in** (``keep_values=True``)
because a long run observing every query would otherwise grow without
bound; retention can additionally be capped (``cap=N``), in which case the
buffer is thinned deterministically — every second retained sample is
dropped and the sampling stride doubles — so it holds an evenly-spaced
subsample of at most ``N`` observations forever.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError

__all__ = ["Monitor"]


class Monitor:
    """Online mean / variance / extrema of observed samples.

    Parameters
    ----------
    name:
        Label used in reports and ``repr``.
    keep_values:
        Whether to retain raw samples (needed by :meth:`percentile`).
        Off by default: retention turns a million-observation run into a
        million-float list.
    cap:
        With ``keep_values=True``, bound the buffer to at most ``cap``
        retained samples via deterministic stride doubling.  ``None``
        retains everything.
    """

    def __init__(
        self,
        name: str = "",
        keep_values: bool = False,
        cap: int | None = None,
    ) -> None:
        if cap is not None and cap < 2:
            raise SimulationError(f"monitor cap must be >= 2 or None, got {cap}")
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._values: list[float] = []
        self.keep_values = keep_values
        self.cap = cap
        #: Only every ``stride``-th observation is retained (grows under a cap).
        self._stride = 1

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if self.keep_values and (self.count - 1) % self._stride == 0:
            self._values.append(value)
            if self.cap is not None and len(self._values) > self.cap:
                self._thin()

    def _thin(self) -> None:
        # Keep every other retained sample (observation indices that are
        # multiples of the doubled stride), halving the buffer in place.
        del self._values[1::2]
        self._stride *= 2

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._mean * self.count

    @property
    def values(self) -> list[float]:
        """The retained samples (copies), if retention is enabled.

        Under a ``cap`` this is an evenly-spaced subsample, not every
        observation.
        """
        return list(self._values)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of retained samples.

        Exact when every sample is retained; an estimate over the
        evenly-spaced subsample once a ``cap`` has forced thinning.
        """
        if not self.keep_values:
            raise SimulationError("percentile needs keep_values=True")
        if not self._values:
            raise SimulationError("percentile of an empty monitor")
        if not 0.0 <= q <= 100.0:
            raise SimulationError(f"percentile q must be in [0, 100], got {q}")
        data = sorted(self._values)
        if len(data) == 1:
            return data[0]
        rank = (q / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        return data[low] * (1 - frac) + data[high] * frac

    def merge(self, other: "Monitor") -> None:
        """Fold another monitor's samples into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self._values = list(other._values) if self.keep_values else []
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean += delta * other.count / combined
        self.count = combined
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        if self.keep_values and other.keep_values:
            self._values.extend(other._values)
            if self.cap is not None:
                while len(self._values) > self.cap:
                    self._thin()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Monitor({self.name!r}, n={self.count}, mean={self.mean:.4f})"
