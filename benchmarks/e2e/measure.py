"""Small measurement helpers shared by the harness and its children.

Nothing here imports the program under test, so the self-tests can load
it without ``src/`` on the path.
"""

from __future__ import annotations

import math
import resource
import statistics


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank ``ceil(fraction*n)``.

    Always a sample that was really observed; ``n - rank`` samples lie
    beyond it, which is what the "ten samples beyond" rule counts.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def summarize(values) -> dict:
    """Median with min, max and the repeat count."""
    values = list(values)
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def parse_vm_hwm_kb(status_text: str) -> int | None:
    """``VmHWM`` (peak resident set, kB) from ``/proc/<pid>/status`` text.

    ``VmHWM`` is the peak of *this* address space.  ``ru_maxrss`` is not
    used: it survives fork+exec, so a spawned process reports at least
    its parent's peak (ROADMAP, re-anchor finding 1).
    """
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) >= 2 and fields[1].isdigit():
                return int(fields[1])
    return None


def vm_hwm_kb() -> int | None:
    """Peak RSS of this process in kB (``None`` off Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            return parse_vm_hwm_kb(handle.read())
    except OSError:
        return None


def own_cpu_seconds() -> float:
    """This process's user+system CPU including reaped children.

    ``getrusage`` rather than ``os.times``: microseconds, not 10 ms ticks.
    """
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )
