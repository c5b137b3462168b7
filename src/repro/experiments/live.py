"""The live-telemetry run: stream-mqo with the observability loop closed.

Where :mod:`repro.experiments.stream_mqo` compares scheduling approaches
analytically, this module runs the same online-MQO scenario with the full
live stack attached *before the first event*:

* a :class:`~repro.obs.live.LiveRegistry` folding every trace record into
  sliding-window rates and streaming quantile sketches;
* an :class:`~repro.obs.slo.SLOMonitor` evaluating declarative rules
  against each fresh snapshot, emitting ``alert.*`` events back into the
  same trace;
* optionally a wall-clock :class:`~repro.obs.profile.WallProfiler`,
  installed on its boundary table for the run, so the run also yields a
  per-phase attribution of where the *real* time went;
* a snapshot sampler that captures the registry at every re-optimization
  window and alert edge — the time series the dashboard and HTML report
  render.

The result carries everything downstream consumers need: the drained
system (trace, ledger, metrics), the registry, the monitor's alert log,
the sampled snapshots and the profiler state.
"""

from __future__ import annotations

import contextlib
import typing
from dataclasses import dataclass, field

from repro.experiments.trace_scenarios import trace_stream_online
from repro.obs import events
from repro.obs.live import LiveRegistry
from repro.obs.profile import WallProfiler
from repro.obs.slo import SLOMonitor, SLORule, default_slo_rules

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.system import FederatedSystem
    from repro.sim.trace import TraceRecord

__all__ = ["LiveRunResult", "run_live"]

#: Record kinds that trigger a snapshot sample (plus the final one).
_SAMPLE_KINDS = frozenset({events.MQO_WINDOW}) | events.ALERT_KINDS


@dataclass
class LiveRunResult:
    """Everything one live run produced."""

    system: "FederatedSystem"
    registry: LiveRegistry
    monitor: SLOMonitor
    snapshots: list[dict] = field(default_factory=list)
    profiler: WallProfiler | None = None

    @property
    def alerts(self):
        """The monitor's alert log (open and closed)."""
        return self.monitor.alerts


def run_live(
    rules: "list[SLORule] | None" = None,
    profile: bool = False,
    num_queries: int = 12,
    rounds: int = 2,
    mean_interarrival: float = 4.0,
    window: float = 10.0,
    half_life: float = 10.0,
) -> LiveRunResult:
    """Run the online stream scenario with live telemetry attached.

    ``rules`` defaults to :func:`~repro.obs.slo.default_slo_rules`.  With
    ``profile=True`` a fresh profiler is installed for the duration of the
    run and returned with its records for rendering.
    """
    registry = LiveRegistry(window=window, half_life=half_life)
    monitor = SLOMonitor(
        default_slo_rules() if rules is None else rules, registry
    )
    snapshots: list[dict] = []

    def sample(record: "TraceRecord") -> None:
        if record.kind in _SAMPLE_KINDS:
            snapshots.append(registry.snapshot(record.time))

    def hook(system: "FederatedSystem") -> None:
        registry.attach(system.tracer)
        monitor.attach(system.tracer)
        # Attached after the monitor: each sampled snapshot reflects the
        # registry *and* any alert the record just caused.
        system.tracer.subscribe(sample)

    profiler = WallProfiler() if profile else None
    with profiler.installed() if profile else contextlib.nullcontext():
        system = trace_stream_online(
            num_queries=num_queries,
            rounds=rounds,
            mean_interarrival=mean_interarrival,
            on_system=hook,
        )
    # End-of-run finalization: force-close any alert still breaching so
    # the trace passes the alert-alternation audit and the dashboard
    # never shows a breach outliving the data.
    monitor.finalize(system.sim.now)
    snapshots.append(registry.snapshot(system.sim.now))
    return LiveRunResult(
        system=system,
        registry=registry,
        monitor=monitor,
        snapshots=snapshots,
        profiler=profiler,
    )
