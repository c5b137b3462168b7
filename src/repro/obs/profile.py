"""Wall-clock profiling: nested scoped timers for the *real* time domain.

Everything else in :mod:`repro.obs` measures **simulation** time; this
module measures what the hardware actually spent — GA runs and their
scoring passes, online re-optimization windows, plan choice, executor
dispatch, the simulation drive loop — so the speed bought by the fast
paths can be attributed.

Design constraints:

* **Wrapped from outside.**  No production function carries a profiling
  hook.  :data:`BOUNDARIES` names the timed functions by module and
  qualified name; :meth:`WallProfiler.installed` swaps each for a timing
  wrapper on entry and puts the original back on exit, so an unprofiled
  run executes the unwrapped functions.  Profiling never changes
  simulation results — the wrappers only read the timer.  The repo
  benchmark's ``benchmarks/e2e/layers.py`` times its layers the same way.
* **Nested attribution.**  Scopes nest on a stack: each
  :class:`ProfileRecord` knows its depth and parent, so exclusive (self)
  time is total time minus direct children, and the chrome://tracing
  export renders the familiar flame rows.
* **A second trace domain.**  :meth:`WallProfiler.to_chrome_trace` uses
  its own pid ("wall-clock") so a profile can be merged next to the
  sim-time trace without the two timelines colliding.

Use as ``with profiler.installed(): run()``, or ``with
profiler.scope("name"): …`` around any block.  The timed layers are
imported by name only on install: no layer depends on this module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from time import perf_counter

from repro.errors import SimulationError

__all__ = [
    "BOUNDARIES",
    "ProfileRecord",
    "WallProfiler",
]

#: ``(row, module, "Class.method")`` of every function
#: :meth:`WallProfiler.installed` times: whole passes, never a per-position
#: inner loop.  ``ga.score`` runs once per generation plus once up front.
BOUNDARIES = (
    ("system.run", "repro.federation.system", "FederatedSystem.run"),
    ("online.schedule", "repro.mqo.online", "OnlineMQOScheduler.run"),
    ("online.window", "repro.mqo.online", "OnlineSession._optimize"),
    ("ga.run", "repro.mqo.ga", "GeneticAlgorithm.run"),
    ("ga.score", "repro.mqo.ga", "GeneticAlgorithm._score_batch"),
    ("optimizer.choose_plan", "repro.core.optimizer",
     "IVQPOptimizer.choose_plan"),
    ("executor.dispatch", "repro.federation.executor",
     "PlanExecutor.execute"),
)


@dataclass(frozen=True)
class ProfileRecord:
    """One closed scope: wall-clock seconds, with nesting context."""

    name: str
    start: float        #: seconds since the profiler's epoch
    duration: float     #: wall-clock seconds inside the scope
    depth: int          #: 0 = top-level
    parent: int | None  #: index of the enclosing record (None at top level)


class _Scope:
    __slots__ = ("_profiler", "_name", "_start", "_index")

    def __init__(self, profiler: "WallProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Scope":
        self._index = self._profiler._open(self._name)
        self._start = self._profiler._timer()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = self._profiler._timer() - self._start
        self._profiler._close(self._name, self._index, elapsed)
        return False


class WallProfiler:
    """Collects nested wall-clock scopes into a flat record list.

    ``timer`` is the monotonic-seconds source (default ``perf_counter``).
    """

    def __init__(self, timer: Callable[[], float] = perf_counter) -> None:
        self.records: list[ProfileRecord] = []
        self._stack: list[int] = []   # indices of open records
        self._epoch: float | None = None
        self._timer = timer

    # -- collection ---------------------------------------------------------

    def scope(self, name: str) -> "_Scope":
        """A context manager timing ``name``."""
        return _Scope(self, name)

    @contextlib.contextmanager
    def installed(self) -> Iterator["WallProfiler"]:
        """Time every :data:`BOUNDARIES` function while the block runs.

        Each target is replaced on its owner by a wrapper that opens one
        scope per call.  On exit — also when the block raises — every
        original is put back, the identical object.
        """
        originals: list[tuple[object, str, Callable]] = []
        try:
            for name, module, qualname in BOUNDARIES:
                class_name, attribute = qualname.split(".")
                owner = getattr(importlib.import_module(module), class_name)
                function = getattr(owner, attribute)
                originals.append((owner, attribute, function))
                setattr(owner, attribute, self._timed(name, function))
            yield self
        finally:
            for owner, attribute, function in reversed(originals):
                setattr(owner, attribute, function)

    def _timed(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def timed(*args, **kwargs):
            with _Scope(self, name):
                return function(*args, **kwargs)

        return timed

    def _open(self, name: str) -> int:
        if self._epoch is None:
            self._epoch = self._timer()
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        # Reserve the slot so children recorded before this scope closes
        # keep a stable parent index; duration lands at close.
        self.records.append(ProfileRecord(
            name=name,
            start=self._timer() - self._epoch,
            duration=0.0,
            depth=len(self._stack),
            parent=parent,
        ))
        self._stack.append(index)
        return index

    def _close(self, name: str, index: int, elapsed: float) -> None:
        opened = self._stack.pop()
        if opened != index:  # pragma: no cover - misuse guard
            raise SimulationError(
                f"profiler scopes closed out of order: {name!r}"
            )
        record = self.records[index]
        self.records[index] = ProfileRecord(
            name=record.name,
            start=record.start,
            duration=elapsed,
            depth=record.depth,
            parent=record.parent,
        )

    # -- reading ------------------------------------------------------------

    def attribution(self) -> dict[str, dict[str, float]]:
        """Per-phase wall-clock table: calls, total, self (exclusive), mean.

        ``total`` sums each scope's inclusive time; ``self`` subtracts the
        time spent in direct children, so summing ``self`` over all phases
        recovers (approximately) the profiled wall clock once.
        """
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record.parent is not None:
                child_time[record.parent] += record.duration
        table: dict[str, dict[str, float]] = {}
        for index, record in enumerate(self.records):
            row = table.setdefault(
                record.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += record.duration
            row["self_s"] += record.duration - child_time[index]
        for row in table.values():
            row["mean_ms"] = row["total_s"] * 1e3 / row["calls"]
        return table

    def render(self) -> str:
        """The attribution table as aligned text, hottest phase first."""
        table = self.attribution()
        if not table:
            return "(no profile records)"
        header = f"{'phase':<28} {'calls':>8} {'total_s':>10} {'self_s':>10} {'mean_ms':>10}"
        lines = [header, "-" * len(header)]
        for name, row in sorted(
            table.items(), key=lambda item: -item[1]["self_s"]
        ):
            lines.append(
                f"{name:<28} {row['calls']:>8} {row['total_s']:>10.4f} "
                f"{row['self_s']:>10.4f} {row['mean_ms']:>10.3f}"
            )
        return "\n".join(lines)

    def to_chrome_trace(self) -> dict:
        """The profile in chrome ``trace_event`` format (wall-clock pid).

        Timestamps are microseconds since the profiler epoch on pid 2 —
        disjoint from the sim-time export's pid 1, so both domains can be
        merged into one file without overlapping.
        """
        trace_events: list[dict] = [{
            "name": "process_name",
            "ph": "M",
            "pid": 2,
            "args": {"name": "wall-clock"},
        }]
        for record in self.records:
            trace_events.append({
                "name": record.name,
                "ph": "X",
                "pid": 2,
                "tid": 1,
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "cat": "profile",
                "args": {"depth": record.depth},
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
