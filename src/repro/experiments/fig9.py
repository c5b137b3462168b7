"""Figure 9 — The effects of multi-query optimization.

Synthetic data, 100 tables, λ_CL = λ_SL = 0.15.

* **9(a)** — vary the query overlap rate from 10% to 50% with a fixed
  workload size; report the mean information value with and without MQO.
* **9(b)** — vary the number of (fully overlapping) queries from 2 to 14;
  report the same comparison.

Expected shape: the MQO improvement grows with the overlap rate — "when the
rate of overlapping is 50%, MQO is effective in achieving more than 50%
performance gain" — and grows with the number of queries.
"""

from __future__ import annotations

from repro.mqo.evaluator import EvaluatorStats
from repro.mqo.scheduler import WorkloadScheduler
from repro.reporting.tables import ResultTable
from repro.testbed import Fig9Config, SyntheticSetup, build_mqo_stack
from repro.workload.generator import overlapping_workload, random_queries

__all__ = ["Fig9Config", "build_mqo_scheduler", "run_fig9a", "run_fig9b"]


def build_mqo_scheduler(
    config: Fig9Config,
) -> tuple[WorkloadScheduler, SyntheticSetup]:
    """The Figure 9 stack under a batch :class:`WorkloadScheduler`."""
    catalog, cost_model, rates, setup = build_mqo_stack(config)
    scheduler = WorkloadScheduler(
        catalog, cost_model, rates, ga_config=config.ga, seed=config.seed
    )
    return scheduler, setup


def run_fig9a(config: Fig9Config | None = None) -> ResultTable:
    """9(a): MQO vs no MQO across overlap rates."""
    config = config or Fig9Config()
    scheduler, setup = build_mqo_scheduler(config)
    queries = random_queries(
        setup.instance, count=config.overlap_query_count,
        seed=config.workload_seed,
    )
    table = ResultTable(
        title="Figure 9(a): mean information value vs overlap rate",
        headers=["overlap_pct", "mqo_iv", "no_mqo_iv", "gain_pct"],
    )
    totals = EvaluatorStats()
    for rate in config.overlap_rates:
        burst = max(2, int(round(rate * len(queries))))
        workload = overlapping_workload(
            queries, rate, seed=config.overlap_seed, burst_size=burst
        )
        mqo = scheduler.schedule(workload)
        fifo = scheduler.fifo(workload)
        gain = _gain_pct(
            mqo.total_information_value, fifo.total_information_value
        )
        table.add(
            int(round(rate * 100)),
            mqo.mean_information_value,
            fifo.mean_information_value,
            gain,
        )
        if mqo.evaluator_stats is not None:
            totals.merge(mqo.evaluator_stats)
    table.add_footnote(f"evaluator: {totals.summary()}")
    return table


def run_fig9b(config: Fig9Config | None = None) -> ResultTable:
    """9(b): MQO vs no MQO across workload sizes (fully overlapping)."""
    config = config or Fig9Config()
    scheduler, setup = build_mqo_scheduler(config)
    table = ResultTable(
        title="Figure 9(b): mean information value vs number of queries",
        headers=["num_queries", "mqo_iv", "no_mqo_iv", "gain_pct"],
    )
    totals = EvaluatorStats()
    for count in config.query_counts:
        queries = random_queries(
            setup.instance, count=count, seed=config.workload_seed
        )
        workload = overlapping_workload(
            queries, overlap_rate=1.0, seed=config.overlap_seed,
            burst_size=count,
        )
        mqo = scheduler.schedule(workload)
        fifo = scheduler.fifo(workload)
        gain = _gain_pct(
            mqo.total_information_value, fifo.total_information_value
        )
        table.add(
            count,
            mqo.mean_information_value,
            fifo.mean_information_value,
            gain,
        )
        if mqo.evaluator_stats is not None:
            totals.merge(mqo.evaluator_stats)
    table.add_footnote(f"evaluator: {totals.summary()}")
    return table


def _gain_pct(mqo_total: float, fifo_total: float) -> float:
    if fifo_total <= 0:
        return 0.0
    return (mqo_total - fifo_total) / fifo_total * 100.0
