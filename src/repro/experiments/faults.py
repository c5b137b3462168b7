"""EXT3 — graceful degradation under injected faults (outage-rate sweep).

The paper assumes its replication precondition away (§3.1: "a QoS aware
replication manager is deployed to ensure updates ... within a pre-defined
time frame") and never asks what happens when sites fail.  This extension
injects deterministic faults — site outages, skipped/slipped syncs — into
the TPC-H stream and sweeps the outage rate, comparing approaches under
two execution policies:

* **retry** — the fault-tolerant runtime: retry with backoff, failover of
  lost legs onto replicas, availability-aware planning for IVQP;
* **none** — a brittle baseline (no retries, no failover) whose queries
  die with their sites.

The claim under test: IVQP with the fault-tolerant runtime degrades
gracefully (IV declines with the outage rate, no query is lost while a
replica exists), whereas the no-retry baseline loses whole queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.value import DiscountRates
from repro.experiments.config import TpchSetup, sync_interval_for_ratio
from repro.experiments.runner import APPROACHES, _build, reissue_stream
from repro.federation.executor import ExecutionPolicy
from repro.federation.faults import FaultPlan
from repro.reporting.tables import ResultTable
from repro.workload.arrival import poisson_arrivals
from repro.workload.query import Workload

__all__ = ["FaultSweepConfig", "run_fault_sweep"]

#: The resilient execution policy used by the sweep's "retry" rows.
RETRY_POLICY = ExecutionPolicy(max_retries=3, retry_backoff=0.5, failover=True)

#: The brittle baseline: first failure kills the query.
NO_RETRY_POLICY = ExecutionPolicy(max_retries=0, retry_backoff=0.0, failover=False)


@dataclass
class FaultSweepConfig:
    """Parameters of the EXT3 sweep."""

    setup: TpchSetup = field(default_factory=TpchSetup)
    #: Outages per minute per site, mildest first (0.0 = fault-free).
    outage_rates: tuple[float, ...] = (0.0, 0.002, 0.005, 0.01)
    outage_mean_duration: float = 8.0
    sync_skip_prob: float = 0.05
    sync_delay_prob: float = 0.10
    sync_delay_mean: float = 2.0
    lambda_both: float = 0.05
    ratio_multiplier: float = 10.0  # Fq:Fs = 1:10
    approaches: tuple[str, ...] = ("ivqp", "federation", "warehouse")
    policies: tuple[str, ...] = ("retry", "none")
    mean_interarrival: float = 10.0
    rounds: int = 1
    arrival_seed: int = 3
    system_seed: int = 1
    fault_seed: int = 17
    #: How far the pre-scheduled fault timelines extend (minutes); must
    #: cover the whole run.
    fault_horizon: float = 4_000.0


def _policy(name: str) -> ExecutionPolicy:
    if name == "retry":
        return RETRY_POLICY
    if name == "none":
        return NO_RETRY_POLICY
    raise ValueError(f"unknown policy {name!r} (retry | none)")


def run_fault_sweep(config: FaultSweepConfig | None = None) -> ResultTable:
    """Sweep the outage rate and report realized IV and fault handling."""
    config = config or FaultSweepConfig()
    rates = DiscountRates.symmetric(config.lambda_both)
    interval = sync_interval_for_ratio(config.ratio_multiplier)
    queries = config.setup.queries()
    site_ids = sorted({spec.site for spec in config.setup.table_specs()})
    table = ResultTable(
        title="EXT3: graceful degradation under injected faults (TPC-H)",
        headers=[
            "outage_rate", "approach", "policy", "mean_iv",
            "failed", "degraded", "retries", "failovers",
            "syncs_skipped", "syncs_delayed",
        ],
    )
    for outage_rate in config.outage_rates:
        fault_plan = FaultPlan.generate(
            seed=config.fault_seed,
            horizon=config.fault_horizon,
            site_ids=site_ids,
            outage_rate=outage_rate,
            outage_mean_duration=config.outage_mean_duration,
            sync_skip_prob=config.sync_skip_prob,
            sync_delay_prob=config.sync_delay_prob,
            sync_delay_mean=config.sync_delay_mean,
        )
        for approach in config.approaches:
            if approach not in APPROACHES:
                raise ValueError(f"unknown approach {approach!r}")
            for policy_name in config.policies:
                system_config = config.setup.system_config(
                    approach=approach,
                    rates=rates,
                    sync_mean_interval=interval,
                    seed=config.system_seed,
                )
                system_config.fault_plan = fault_plan
                system_config.execution_policy = _policy(policy_name)
                system = _build(system_config, approach)
                stream = reissue_stream(queries, config.rounds)
                arrivals = poisson_arrivals(
                    config.mean_interarrival, len(stream),
                    seed=config.arrival_seed,
                )
                system.submit_workload(
                    Workload.from_queries(stream, arrivals=arrivals)
                )
                system.run()
                table.add(
                    outage_rate,
                    approach,
                    policy_name,
                    system.mean_information_value,
                    system.failed_count,
                    system.degraded_count,
                    system.total_retries,
                    system.total_failovers,
                    system.replication.syncs_skipped,
                    system.replication.syncs_delayed,
                )
    return table
