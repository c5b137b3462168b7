"""Canonical traced scenarios for ``python -m repro trace``.

Each scenario builds a system with the observability layer on, runs a
deterministic workload, and returns the :class:`FederatedSystem` so the
CLI (or a test) can export the trace, rebuild span trees, snapshot the
metrics registry, or hand the records to the
:class:`~repro.obs.checker.TraceChecker`.

* ``fig4`` — the paper's Figure 4 scatter-and-gather walkthrough, *executed*
  (not just planned): the four-table world with its fixed sync schedules,
  the IVQP optimizer's chosen plan, one query submitted at t = 11.  Fully
  deterministic — this is the golden-trace scenario the regression test
  pins down.
* ``stream`` — a small Poisson query stream on the TPC-H micro-instance
  (IVQP routing), exercising queueing, replicas and sync interleavings.
* ``faults`` — the EXT3 setup in miniature: the same stream with a seeded
  fault plan (site outages + sync skips/slips) under the retry/failover
  execution policy, exercising every degraded lifecycle path.
* ``stream-online`` — the EXT4 online-MQO path in miniature: the stream
  routed through the rolling-window scheduler (admission control may
  shed) under the same fault plan — the scenario the live-telemetry CLI
  and the exporter round-trip tests share.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.optimizer import IVQPOptimizer
from repro.core.value import DiscountRates
from repro.experiments.config import TpchSetup, sync_interval_for_ratio
from repro.experiments.fig4_walkthrough import Fig4Config, build_fig4_world
from repro.experiments.runner import run_stream
from repro.federation.executor import ExecutionPolicy
from repro.federation.faults import FaultPlan
from repro.federation.site import LOCAL_SITE_ID, Site
from repro.federation.system import FederatedSystem, ReplicationManager
from repro.sim.scheduler import Simulator
from repro.sim.trace import Tracer

__all__ = [
    "TRACE_SCENARIOS",
    "trace_fig4",
    "trace_stream",
    "trace_faults",
    "trace_stream_online",
]


def trace_fig4(config: Fig4Config | None = None) -> FederatedSystem:
    """Execute the Figure 4 walkthrough under full tracing.

    The walkthrough world uses a :class:`StaticCostProvider` (the paper's
    stipulated 2/4/6/8/10 computation times), which ``build_system`` does
    not speak, so the federation is assembled by hand: one site per base
    table, the IVQP optimizer as router, fixed sync schedules.
    """
    config = config or Fig4Config()
    catalog, provider, query, rates = build_fig4_world(config)

    sim = Simulator()
    sites = {LOCAL_SITE_ID: Site(sim, LOCAL_SITE_ID, capacity=2)}
    for index, _name in enumerate(catalog.table_names):
        sites[index] = Site(sim, index, capacity=1)
    tracer = Tracer(lambda: sim.now)
    replication = ReplicationManager(sim, catalog)
    system = FederatedSystem(
        sim=sim,
        catalog=catalog,
        sites=sites,
        cost_model=provider,  # StaticCostProvider quacks like a CostModel here
        router=IVQPOptimizer(catalog, provider, rates),
        replication=replication,
        rates=rates,
        tracer=tracer,
    )
    system.submit(query, at=config.submit_at)
    system.run()
    return system


def trace_stream(
    scale: float = 0.002,
    num_queries: int = 12,
    mean_interarrival: float = 8.0,
) -> FederatedSystem:
    """A traced Poisson stream of TPC-H queries under IVQP routing."""
    setup = TpchSetup(scale=scale, seed=7)
    rates = DiscountRates.symmetric(0.02)
    config = setup.system_config(
        approach="ivqp",
        rates=rates,
        sync_mean_interval=sync_interval_for_ratio(10.0),
        seed=1,
    )
    result = run_stream(
        config,
        approach="ivqp",
        queries=setup.queries()[:num_queries],
        mean_interarrival=mean_interarrival,
        trace=True,
    )
    assert result.system is not None
    return result.system


def trace_faults(
    scale: float = 0.002,
    num_queries: int = 12,
    mean_interarrival: float = 8.0,
    outage_rate: float = 0.01,
) -> FederatedSystem:
    """The EXT3 fault scenario in miniature, fully traced."""
    setup = TpchSetup(scale=scale, seed=7)
    rates = DiscountRates.symmetric(0.05)
    config = setup.system_config(
        approach="ivqp",
        rates=rates,
        sync_mean_interval=sync_interval_for_ratio(10.0),
        seed=1,
    )
    site_ids = sorted({spec.site for spec in setup.table_specs()})
    config.fault_plan = FaultPlan.generate(
        seed=17,
        horizon=4_000.0,
        site_ids=site_ids,
        outage_rate=outage_rate,
        outage_mean_duration=8.0,
        sync_skip_prob=0.05,
        sync_delay_prob=0.10,
    )
    config.execution_policy = ExecutionPolicy(
        max_retries=3, retry_backoff=0.5, failover=True
    )
    result = run_stream(
        config,
        approach="ivqp",
        queries=setup.queries()[:num_queries],
        mean_interarrival=mean_interarrival,
        trace=True,
    )
    assert result.system is not None
    return result.system


def trace_stream_online(
    scale: float = 0.002,
    num_queries: int = 12,
    rounds: int = 2,
    mean_interarrival: float = 4.0,
    outage_rate: float = 0.01,
    on_system: "Callable[[FederatedSystem], None] | None" = None,
) -> FederatedSystem:
    """The EXT4 online-MQO stream in miniature, fully traced.

    Routes the stream through the rolling-window scheduler under the
    miniature EXT3 fault plan, so the trace carries ``mqo.window`` /
    ``mqo.admit`` / ``mqo.shed`` events next to degraded lifecycles —
    everything the live registry and SLO monitor feed on.  ``on_system``
    is forwarded to :func:`run_stream` so telemetry can attach to the
    tracer before the first event.
    """
    setup = TpchSetup(scale=scale, seed=7)
    rates = DiscountRates.symmetric(0.05)
    config = setup.system_config(
        approach="ivqp",
        rates=rates,
        sync_mean_interval=sync_interval_for_ratio(10.0),
        seed=1,
    )
    site_ids = sorted({spec.site for spec in setup.table_specs()})
    config.fault_plan = FaultPlan.generate(
        seed=17,
        horizon=4_000.0,
        site_ids=site_ids,
        outage_rate=outage_rate,
        outage_mean_duration=8.0,
        sync_skip_prob=0.05,
        sync_delay_prob=0.10,
    )
    config.execution_policy = ExecutionPolicy(
        max_retries=3, retry_backoff=0.5, failover=True
    )
    result = run_stream(
        config,
        approach="ivqp",
        queries=setup.queries()[:num_queries],
        rounds=rounds,
        mean_interarrival=mean_interarrival,
        trace=True,
        online=True,
        on_system=on_system,
    )
    assert result.system is not None
    return result.system


#: Scenario name → builder, the registry ``python -m repro trace`` offers.
TRACE_SCENARIOS: dict[str, Callable[[], FederatedSystem]] = {
    "fig4": trace_fig4,
    "stream": trace_stream,
    "faults": trace_faults,
    "stream-online": trace_stream_online,
}
