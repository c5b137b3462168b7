"""The fixed-bucket histogram and the Prometheus text writer.

:class:`Histogram` is the bucketed distribution the metrics registry
(:class:`~repro.obs.live.LiveRegistry`, the one fold of the trace behind
``FederatedSystem.metrics()``, the fleet registry and ``/metrics``) keeps
for IV, CL and SL; :func:`to_prometheus` renders any snapshot of that
registry in the Prometheus text exposition format.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left

from repro.errors import SimulationError

__all__ = [
    "Histogram",
    "to_prometheus",
]

#: Default histogram bucket upper bounds (minutes / IV units).
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max (Prometheus-style).

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "minimum", "maximum")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise SimulationError(
                f"histogram {name!r} needs sorted, non-empty bucket bounds"
            )
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.sum += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def _bucket(self, value: float) -> int:
        # First bound >= value; beyond the last bound -> overflow bucket.
        return bisect_left(self.bounds, value)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate of the ``q``-quantile (0–1), interpolated within buckets.

        Finds the bucket holding the ``q * count``-th sample, then assumes
        samples are spread uniformly across that bucket's span and
        interpolates linearly between its edges (the true minimum /
        maximum stand in for the open edges of the first and overflow
        buckets).  The estimate is clamped into ``[min, max]`` and is
        monotone non-decreasing in ``q``; with all mass in one bucket it
        degrades gracefully to that bucket's span.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile q must be in [0, 1], got {q}")
        if self.count == 0:
            raise SimulationError(f"quantile of empty histogram {self.name!r}")
        target = q * self.count
        running = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if running + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.minimum
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.maximum
                )
                lower = max(min(lower, self.maximum), self.minimum)
                upper = max(min(upper, self.maximum), self.minimum)
                fraction = (target - running) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, fraction)
                return min(max(estimate, self.minimum), self.maximum)
            running += bucket_count
        return self.maximum

    def snapshot(self) -> dict:
        """JSON-ready representation."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
        }


# -- Prometheus text exposition ------------------------------------------------

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    sanitized = _PROM_NAME.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = f"_{sanitized}"
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _prom_histogram(lines: list[str], name: str, data: dict) -> None:
    lines.append(f"# TYPE {name} histogram")
    cumulative = 0
    for bound, bucket_count in zip(data["bounds"], data["counts"]):
        cumulative += bucket_count
        lines.append(f'{name}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {data["count"]}')
    lines.append(f"{name}_sum {_prom_value(data['sum'])}")
    lines.append(f"{name}_count {data['count']}")


def to_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a metrics snapshot in Prometheus text exposition format 0.0.4.

    Reads a :meth:`~repro.obs.live.LiveRegistry.snapshot` (``time``,
    ``counters``, ``gauges``, ``rates``, ``quantiles``, ``histograms`` and
    per-table ``tables``); absent sections are skipped.  Counters export as
    ``counter``; gauges, rates and quantiles as ``gauge``; histograms as
    cumulative ``_bucket``/``_sum``/``_count`` series; per-table gauges get a
    ``table`` label.  Metric names are sanitized (``.`` → ``_``) and prefixed.
    """
    lines: list[str] = []
    if "time" in snapshot:
        name = _prom_name("time", prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_prom_value(snapshot['time'])}")
    for section, prom_type in (
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("rates", "gauge"),
        ("quantiles", "gauge"),
    ):
        for metric, value in sorted(snapshot.get(section, {}).items()):
            name = _prom_name(metric, prefix)
            lines.append(f"# TYPE {name} {prom_type}")
            lines.append(f"{name} {_prom_value(value)}")
    tables = snapshot.get("tables", {})
    by_metric: dict[str, list[tuple[str, float]]] = {}
    for table, gauges in sorted(tables.items()):
        for metric, value in sorted(gauges.items()):
            by_metric.setdefault(metric, []).append((table, value))
    for metric, series in sorted(by_metric.items()):
        name = _prom_name(metric, prefix)
        lines.append(f"# TYPE {name} gauge")
        for table, value in series:
            lines.append(f'{name}{{table="{table}"}} {_prom_value(value)}')
    for metric, data in sorted(snapshot.get("histograms", {}).items()):
        _prom_histogram(lines, _prom_name(metric, prefix), data)
    return "\n".join(lines) + "\n"
