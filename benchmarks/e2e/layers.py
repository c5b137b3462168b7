"""Outside-in layer attribution: spans recorded from the benchmark's side.

The program under test is not edited.  The harness wraps the public
functions at each layer boundary (one table, :data:`BOUNDARIES`) and
records a span per call: name, start, end and the span that caused it.
A layer's *self time* is its span's duration minus the part covered by
child spans, so the self times of one run sum to the root span exactly.

Later changes may rename internals; they may not edit this file.  A
boundary whose target no longer resolves is skipped with a one-line
warning and its metrics read ``None`` — no end-to-end number depends on
anything here (end-to-end runs install no wrapper at all).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

#: ``(metric prefix, module, qualname)``.  Several rows may share a prefix
#: (their spans pool into one layer).  ``enumerate_plans`` and
#: ``execution_ranges`` are wrapped where their callers look them up
#: (a ``from x import f`` binding lives in the importing module).
BOUNDARIES = (
    ("experiments.scale.self", "repro.experiments.scale", "run_schedule"),
    ("workload.build_stream", "repro.experiments.scale", "build_stream"),
    ("core.enumerate_plans", "repro.mqo.evaluator", "enumerate_plans"),
    ("federation.combo_cost", "repro.federation.costmodel",
     "CostModel.combo_cost"),
    ("mqo.evaluator.compile", "repro.mqo.evaluator",
     "WorkloadEvaluator.range_of"),
    ("mqo.evaluator.compile", "repro.mqo.evaluator",
     "WorkloadEvaluator.upper_bound"),
    ("mqo.evaluator.evaluate_sequence", "repro.mqo.evaluator",
     "WorkloadEvaluator.evaluate_sequence"),
    ("mqo.evaluator.choose_best", "repro.mqo.evaluator",
     "WorkloadEvaluator.choose_best"),
    ("mqo.vector.fitness_batch", "repro.mqo.vector",
     "VectorizedEvaluator.fitness_batch"),
    ("mqo.ga.run", "repro.mqo.ga", "GeneticAlgorithm.run"),
    ("mqo.conflict.execution_ranges", "repro.experiments.scale",
     "execution_ranges"),
    ("mqo.conflict.maintain", "repro.mqo.conflict",
     "IncrementalConflictGroups.add"),
    ("mqo.conflict.maintain", "repro.mqo.conflict",
     "IncrementalConflictGroups.remove"),
    ("mqo.conflict.maintain", "repro.mqo.conflict",
     "IncrementalConflictGroups.groups"),
    ("mqo.online.loop", "repro.mqo.online", "OnlineMQOScheduler.run"),
    ("mqo.online.submit", "repro.mqo.online", "OnlineSession.submit"),
    ("mqo.online.optimize", "repro.mqo.online", "OnlineSession._optimize"),
    ("mqo.online.dispatch", "repro.mqo.online", "OnlineSession.dispatch"),
    ("sim.clock", "repro.sim.clocks", "SimClock.push"),
    ("sim.clock", "repro.sim.clocks", "SimClock.pop"),
    # The live path (the serve child installs the whole table).
    ("serve.request", "repro.serve.httpd", "HTTPServer._handle"),
    ("serve.submit", "repro.serve.service", "QueryService.submit"),
    ("serve.handle", "repro.mqo.online", "OnlineSession.handle"),
    ("obs.tracer_emit", "repro.sim.trace", "Tracer.emit"),
    ("durable.journal_append", "repro.durable.journal",
     "JournalWriter.append"),
)

#: Boundaries only the serve child wraps: on the sim path ``handle`` and
#: ``emit`` would add a span per event for layers no sim metric reads.
SERVE_ONLY = frozenset({
    "serve.request", "serve.submit", "serve.handle",
    "obs.tracer_emit", "durable.journal_append",
})


#: Retained spans are capped so ``--trace-out`` stays loadable.
MAX_RETAINED_SPANS = 200_000


def resolve(module_name: str, qualname: str):
    """``(owner, attribute, target)`` for a boundary, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = qualname.split(".")
    try:
        for part in parts[:-1]:
            owner = getattr(owner, part)
        target = getattr(owner, parts[-1])
    except AttributeError:
        return None
    if not callable(target):
        return None
    return owner, parts[-1], target


class SpanRecorder:
    """Aggregates self time and call counts per layer as spans close.

    Synchronous spans nest on one stack (the program's hot path is
    single-threaded; on the serve path synchronous calls cannot
    interleave inside one event loop).  Coroutine boundaries are timed
    inclusively and never pushed on the stack: self time is not defined
    across interleaved coroutines.
    """

    def __init__(self, clock=time.perf_counter, retain_spans: bool = False):
        self.clock = clock
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Inclusive per-call durations of coroutine boundaries.
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: Hook scratch space (counters summed from returned results).
        self.counters: dict[str, float] = defaultdict(float)
        #: ``QueryService.submit`` return instants by qid, the waits until
        #: ``OnlineSession.handle`` picked each arrival up, and how long
        #: ``handle`` then took for it.
        self.submit_marks: dict[int, float] = {}
        self.submit_to_handle: list[float] = []
        self.arrival_handle: list[float] = []
        self._arrival_started: float | None = None
        #: ``(name, start, end, parent index or -1)`` when retained.
        self.spans: list[tuple[str, float, float, int]] = []
        self.retain_spans = retain_spans
        self._stack: list[list] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, function, before=None, after=None):
        """``function`` with a span around every call.

        ``before(recorder, args, now)`` runs at span start and
        ``after(recorder, args, result, now)`` at span end; both are for
        counters read off arguments or results, never for timing.
        """
        if inspect.iscoroutinefunction(function):
            return self._wrap_coroutine(name, function)
        clock = self.clock
        stack = self._stack
        self_seconds = self.self_seconds
        calls = self.calls
        retain = self.retain_spans
        spans = self.spans

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            # frame: [child seconds, index of this span in `spans`]
            frame = [0.0, -1]
            if retain and len(spans) < MAX_RETAINED_SPANS:
                frame[1] = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(frame)
            started = clock()
            if before is not None:
                before(self, args, started)
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(self, args, result, clock())
                return result
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                self_seconds[name] += duration - frame[0]
                calls[name] += 1
                if parent is not None:
                    parent[0] += duration
                if frame[1] >= 0:
                    spans[frame[1]] = (
                        name, started, ended,
                        parent[1] if parent is not None else -1,
                    )

        return wrapper

    def _wrap_coroutine(self, name: str, function):
        clock = self.clock
        calls = self.calls
        durations = self.durations[name]

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            started = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                durations.append(clock() - started)
                calls[name] += 1

        return wrapper

    # -- output ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Retained spans as chrome://tracing complete events."""
        origin = min((span[1] for span in self.spans if span), default=0.0)
        events = [
            {
                "name": span[0], "ph": "X", "pid": 1, "tid": 1,
                "ts": (span[1] - origin) * 1e6,
                "dur": (span[2] - span[1]) * 1e6,
                "args": {"parent": span[3]},
            }
            for span in self.spans if span
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


# -- hooks: counters read at the same boundaries ----------------------------


def _after_ga_run(recorder, args, result, now) -> None:
    recorder.counters["ga.fitness_calls"] += result.fitness_calls
    recorder.counters["ga.cache_hits"] += result.cache_hits


def _after_scheduler_run(recorder, args, decision, now) -> None:
    add_evaluator_stats(recorder, decision.evaluator_stats)


def add_evaluator_stats(recorder, stats) -> None:
    """Fold one ``EvaluatorStats`` into the recorder's counters."""
    if stats is None:
        return
    for field in (
        "realize_calls", "naive_realize_calls", "choice_hits", "prefix_hits",
    ):
        recorder.counters[f"evaluator.{field}"] += getattr(stats, field)


def _after_service_submit(recorder, args, result, now) -> None:
    recorder.submit_marks[result[0]] = now


def _before_session_handle(recorder, args, now) -> None:
    # args: (session, now, tag, payload).  Only arrivals are sampled:
    # idle window pops outnumber them and would own the median.
    recorder._arrival_started = None
    if len(args) >= 4 and args[2] == "arrival":
        recorder._arrival_started = now
        submitted = recorder.submit_marks.pop(args[3], None)
        if submitted is not None:
            recorder.submit_to_handle.append(now - submitted)


def _after_session_handle(recorder, args, result, now) -> None:
    if recorder._arrival_started is not None:
        recorder.arrival_handle.append(now - recorder._arrival_started)


_HOOKS = {
    "mqo.ga.run": {"after": _after_ga_run},
    "mqo.online.loop": {"after": _after_scheduler_run},
    "serve.submit": {"after": _after_service_submit},
    "serve.handle": {
        "before": _before_session_handle, "after": _after_session_handle,
    },
}


def install(recorder: SpanRecorder | None, serve: bool = False) -> list[dict]:
    """Wrap every resolvable boundary; returns one status row per boundary.

    With ``recorder=None`` nothing is patched and the rows only say which
    boundaries resolve (``run.py --list-boundaries``).
    """
    rows = []
    for prefix, module_name, qualname in BOUNDARIES:
        if prefix in SERVE_ONLY and not serve:
            continue
        found = resolve(module_name, qualname)
        rows.append({
            "prefix": prefix, "module": module_name, "qualname": qualname,
            "resolved": found is not None,
        })
        if found is None:
            print(
                f"warning: boundary {module_name}:{qualname} did not "
                f"resolve; {prefix}.* reads null",
                file=sys.stderr,
            )
            continue
        if recorder is not None:
            owner, attribute, target = found
            setattr(owner, attribute, recorder.wrap(
                prefix, target, **_HOOKS.get(prefix, {})
            ))
    return rows


def layer_metrics(recorder: SpanRecorder, rows: list[dict]) -> dict:
    """``<prefix>_s`` / ``<prefix>_calls`` for every installed prefix.

    A prefix with any unresolved boundary reads ``None`` for both.
    """
    broken = {row["prefix"] for row in rows if not row["resolved"]}
    metrics: dict[str, float | None] = {}
    for prefix in {row["prefix"] for row in rows}:
        if prefix in broken:
            metrics[f"{prefix}_s"] = None
            metrics[f"{prefix}_calls"] = None
        else:
            metrics[f"{prefix}_s"] = recorder.self_seconds.get(prefix, 0.0)
            metrics[f"{prefix}_calls"] = recorder.calls.get(prefix, 0)
    return metrics


def counter_metrics(recorder: SpanRecorder) -> dict:
    """The useful-work ratios read from results at the wrapped boundaries."""
    counters = recorder.counters
    realize = counters.get("evaluator.realize_calls", 0.0)
    naive = counters.get("evaluator.naive_realize_calls", 0.0)
    fitness = counters.get("ga.fitness_calls", 0.0)
    hits = counters.get("ga.cache_hits", 0.0)
    return {
        "mqo.evaluator.realize_calls": realize,
        "mqo.evaluator.realize_reduction": naive / realize if realize else 0.0,
        "mqo.evaluator.choice_hits": counters.get("evaluator.choice_hits", 0.0),
        "mqo.evaluator.prefix_hits": counters.get("evaluator.prefix_hits", 0.0),
        "mqo.ga.fitness_calls": fitness,
        "mqo.ga.cache_hit_share": (
            hits / (hits + fitness) if hits + fitness else 0.0
        ),
    }
