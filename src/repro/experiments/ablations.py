"""Ablations of the design choices DESIGN.md §6 calls out.

* **ABL1 — starvation prevention (Section 3.3):** a saturating burst
  workload dispatched greedily by raw IV starves somebody; adding the
  aging boost bounds the maximum wait at a small cost in total IV.
* **ABL2 — scatter-gather vs exhaustive search:** identical optima on
  uniform-cost instances, at a fraction of the evaluated plans.
* **ABL3 — placement advisor (future work, Section 6):** advisor-chosen
  replicas beat random placement on expected workload IV.
* **ABL4 — precalculated routing (§3.1's "information values of all
  queries can be pre-calculated for routing"):** table lookups match the
  live scatter-and-gather search's IV while answering faster.
* **ABL5 — GA vs simpler searches:** the paper's Goldberg-citing claim
  that a GA balances exploration and exploitation; compared against random
  search and restarting hill climbing at an equal evaluation budget.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.aging import AgingPolicy
from repro.core.advisor import PlacementAdvisor, PlacementRecommendation
from repro.core.enumeration import enumerate_plans
from repro.core.optimizer import IVQPOptimizer, SearchDiagnostics
from repro.core.value import DiscountRates
from repro.experiments.config import (
    SyntheticSetup,
    TpchSetup,
    sync_interval_for_ratio,
)
from repro.federation.catalog import Catalog, TableDef
from repro.federation.costmodel import CostModel, StaticCostProvider
from repro.federation.sync import build_schedules
from repro.mqo.scheduler import WorkloadScheduler
from repro.reporting.tables import ResultTable
from repro.sim.rng import RandomSource
from repro.workload.query import DSSQuery, Workload

__all__ = [
    "AblationConfig",
    "run_aging_ablation",
    "run_search_ablation",
    "placement_evaluator",
    "run_advisor_ablation",
    "run_routing_ablation",
    "run_ga_ablation",
]


@dataclass
class AblationConfig:
    """Shared knobs for the three ablations."""

    seed: int = 11
    lambda_both: float = 0.15
    burst_queries: int = 16
    search_trials: int = 8
    advisor_budget: int = 5
    advisor_sample_times: tuple[float, ...] = (20.0, 45.0, 70.0, 95.0)
    ga_seed: int = 0


# -- ABL1: aging ------------------------------------------------------------


def _starvation_stack(config: AblationConfig):
    """One expensive early query plus a saturating stream of cheap ones.

    Greedy-by-IV keeps preferring each freshly arrived cheap query (its IV
    potential is still high), so the expensive query starves — the exact
    pathology Section 3.3 describes.
    """
    setup = SyntheticSetup(
        num_tables=40, num_sites=4, replicated_count=20,
        placement="uniform", seed=config.seed,
    )
    placement = setup.placement_map()
    catalog = Catalog()
    for name in setup.instance.table_names:
        catalog.add_table(
            TableDef(name, placement[name], setup.instance.row_counts[name])
        )
    replicated = setup.replicated_for_ivqp()
    schedules = build_schedules(
        replicated, mode="shared", mean_interval=1.0,
        source=RandomSource(config.seed, "abl1"),
    )
    for name in replicated:
        catalog.add_replica(name, schedules[name])
    rates = DiscountRates.symmetric(config.lambda_both)
    scheduler = WorkloadScheduler(catalog, CostModel(catalog), rates)

    tables = sorted(
        setup.instance.table_names,
        key=lambda name: setup.instance.row_counts[name],
    )
    big = DSSQuery(
        query_id=1, name="big-report", tables=tuple(tables[-8:]),
        business_value=2.0, rates=rates,
    )
    workload = Workload()
    workload.add(big, arrival=1.0)
    small_tables = tables[: len(tables) // 2]
    # Small queries: service time just above their inter-arrival gap, so
    # the queue never drains while the stream lasts.
    for index in range(config.burst_queries):
        table_name = small_tables[index % len(small_tables)]
        workload.add(
            DSSQuery(
                query_id=index + 2,
                name=f"small-{index + 1}",
                tables=(table_name,),
                business_value=1.0,
                rates=rates,
                base_work=600.0,
            ),
            arrival=1.0 + 0.1 * index,
        )
    return scheduler, workload


def run_aging_ablation(config: AblationConfig | None = None) -> ResultTable:
    """ABL1: greedy dispatch with and without the aging boost."""
    config = config or AblationConfig()
    scheduler, workload = _starvation_stack(config)
    table = ResultTable(
        title="ABL1: starvation prevention (greedy dispatch, saturating stream)",
        headers=["policy", "mean_iv", "max_wait_minutes", "big_report_wait"],
    )

    def big_wait(result) -> float:
        assignment = next(
            a for a in result.assignments if a.query.name == "big-report"
        )
        return assignment.begin - assignment.arrival

    plain = scheduler.greedy_dispatch(workload, aging=None)
    aged = scheduler.greedy_dispatch(
        workload, aging=AgingPolicy(beta=config.lambda_both * 2)
    )
    table.add(
        "no-aging", plain.mean_information_value, plain.max_wait,
        big_wait(plain),
    )
    table.add(
        "aging", aged.mean_information_value, aged.max_wait, big_wait(aged)
    )
    return table


# -- ABL2: search ------------------------------------------------------------


def run_search_ablation(config: AblationConfig | None = None) -> ResultTable:
    """ABL2: scatter-gather vs exhaustive enumeration."""
    config = config or AblationConfig()
    rng = RandomSource(config.seed, "abl2")
    rates = DiscountRates.symmetric(0.1)
    table = ResultTable(
        title="ABL2: scatter-gather vs exhaustive (uniform per-table costs)",
        headers=[
            "trial", "tables", "sg_iv", "oracle_iv", "sg_plans",
            "oracle_plans", "sg_ms", "oracle_ms",
        ],
    )
    for trial in range(config.search_trials):
        n_tables = rng.randint(3, 6)
        catalog = Catalog()
        names = []
        for index in range(n_tables):
            name = f"T{index + 1}"
            names.append(name)
            catalog.add_table(TableDef(name, site=index, row_count=1_000))
            period = rng.uniform(4.0, 14.0)
            schedule = build_schedules(
                [name], mode="periodic", mean_interval=period,
                source=RandomSource(config.seed * 100 + trial, name),
                stagger=True,
            )[name]
            catalog.add_replica(name, schedule)
        costs = {k: 2.0 + 2.0 * k for k in range(n_tables + 1)}
        provider = StaticCostProvider(catalog, costs)
        query = DSSQuery(query_id=1, name=f"abl2-{trial}", tables=tuple(names))
        submit = rng.uniform(5.0, 30.0)

        optimizer = IVQPOptimizer(catalog, provider, rates)
        diag = SearchDiagnostics()
        t0 = time.perf_counter()
        chosen = optimizer.choose_plan(query, submit, diag)
        sg_ms = (time.perf_counter() - t0) * 1_000

        horizon = submit + 2.0 * costs[n_tables]
        t0 = time.perf_counter()
        plans = enumerate_plans(
            query, catalog, provider, rates, submit, horizon, exhaustive=True
        )
        oracle = max(plans, key=lambda plan: plan.information_value)
        oracle_ms = (time.perf_counter() - t0) * 1_000

        table.add(
            trial, n_tables,
            chosen.information_value, oracle.information_value,
            diag.plans_evaluated, len(plans), sg_ms, oracle_ms,
        )
    return table


# -- ABL3: placement advisor ---------------------------------------------------


def placement_evaluator(
    setup: TpchSetup,
    rates: DiscountRates,
    sync_mean_interval: float,
    sample_times: tuple[float, ...],
    queries: list[DSSQuery] | None = None,
) -> Callable[[frozenset[str]], float]:
    """Build the standard advisor evaluator: expected uncontended IV.

    Scores a candidate replica set by rebuilding the catalog with those
    replicas (shared sync budget), running the IVQP optimizer for every
    query at each sample submission time, and averaging the plans' IVs.
    """
    specs = setup.table_specs()
    workload = queries if queries is not None else setup.queries()

    def evaluate(replicas: frozenset[str]) -> float:
        catalog = Catalog()
        for spec in specs:
            catalog.add_table(
                TableDef(spec.name, spec.site, spec.row_count, spec.row_bytes)
            )
        if replicas:
            schedules = build_schedules(
                sorted(replicas), mode="shared",
                mean_interval=sync_mean_interval,
                source=RandomSource(setup.seed, "advisor"),
            )
            for name in sorted(replicas):
                catalog.add_replica(name, schedules[name])
        cost_model = CostModel(catalog)
        optimizer = IVQPOptimizer(catalog, cost_model, rates)
        total = 0.0
        count = 0
        for query in workload:
            for submit in sample_times:
                plan = optimizer.choose_plan(query, submit)
                total += plan.information_value
                count += 1
        return total / max(count, 1)

    return evaluate


def run_advisor_ablation(config: AblationConfig | None = None) -> ResultTable:
    """ABL3: advisor placement vs random placement vs no replication."""
    config = config or AblationConfig()
    setup = TpchSetup()
    rates = DiscountRates.symmetric(0.05)
    interval = sync_interval_for_ratio(10.0)
    evaluate = placement_evaluator(
        setup, rates, interval, config.advisor_sample_times
    )
    advisor = PlacementAdvisor(
        candidate_tables=setup.instance.table_names,
        evaluate=evaluate,
        budget=config.advisor_budget,
        swap_passes=0,  # greedy only; swaps are expensive on this evaluator
    )
    recommendation: PlacementRecommendation = advisor.recommend()

    random_pick = frozenset(setup.replicated_for_ivqp())
    table = ResultTable(
        title="ABL3: placement advisor vs random replication (TPC-H)",
        headers=["placement", "replicas", "expected_iv"],
    )
    table.add("none", 0, evaluate(frozenset()))
    table.add("random-5", len(random_pick), evaluate(random_pick))
    table.add(
        "advisor", len(recommendation.replicas), recommendation.expected_value
    )
    return table


# -- ABL4: precalculated routing ------------------------------------------------


def run_routing_ablation(config: AblationConfig | None = None) -> ResultTable:
    """ABL4: precomputed routing table vs live scatter-and-gather search."""
    from repro.core.routing import RoutingTable

    config = config or AblationConfig()
    setup = TpchSetup(scale=0.001, seed=config.seed)
    rates = DiscountRates.symmetric(0.05)
    catalog = Catalog()
    for spec in setup.table_specs():
        catalog.add_table(
            TableDef(spec.name, spec.site, spec.row_count, spec.row_bytes)
        )
    replicated = list(setup.instance.table_names)
    schedules = build_schedules(
        replicated, mode="shared",
        mean_interval=sync_interval_for_ratio(10.0),
        source=RandomSource(config.seed, "abl4"),
    )
    for name in replicated:
        catalog.add_replica(name, schedules[name])
    cost_model = CostModel(catalog)
    queries = setup.queries()

    routing_table = RoutingTable(catalog, cost_model, rates, horizon=120.0)
    t0 = time.perf_counter()
    intervals = routing_table.register_all(queries)
    precompute_ms = (time.perf_counter() - t0) * 1_000

    optimizer = IVQPOptimizer(catalog, cost_model, rates)
    submits = [7.5 + 4.1 * index for index in range(24)]

    live = SearchDiagnostics()
    t0 = time.perf_counter()
    live_total = 0.0
    for query in queries:
        for submit in submits:
            plan = optimizer.choose_plan(query, submit, live)
            live_total += plan.information_value
    live_ms = (time.perf_counter() - t0) * 1_000

    t0 = time.perf_counter()
    routed_total = 0.0
    for query in queries:
        for submit in submits:
            routed_total += routing_table.route(query, submit).information_value
    routed_ms = (time.perf_counter() - t0) * 1_000

    lookups = len(queries) * len(submits)
    table = ResultTable(
        title="ABL4: precalculated routing vs live search "
        f"({len(queries)} queries x {len(submits)} submissions, "
        f"{intervals} intervals precomputed in {precompute_ms:.0f} ms)",
        headers=["router", "mean_iv", "plans_per_lookup", "total_ms",
                 "us_per_lookup"],
    )
    table.add("live-search", live_total / lookups,
              live.plans_evaluated / lookups, live_ms,
              live_ms * 1_000 / lookups)
    table.add("routing-table", routed_total / lookups,
              routing_table.stats.plans_evaluated / lookups, routed_ms,
              routed_ms * 1_000 / lookups)
    return table


# -- ABL5: GA vs simpler order searches ------------------------------------------


def run_ga_ablation(config: AblationConfig | None = None) -> ResultTable:
    """ABL5: GA vs random search vs hill climbing at equal budgets."""
    from repro.experiments.fig9 import Fig9Config, build_mqo_scheduler
    from repro.mqo.ga import GeneticAlgorithm
    from repro.mqo.search_baselines import hill_climb, random_search
    from repro.workload.generator import overlapping_workload, random_queries

    config = config or AblationConfig()
    fig9 = Fig9Config()
    scheduler, setup = build_mqo_scheduler(fig9)
    queries = random_queries(setup.instance, count=12, seed=config.seed + 5)
    workload = overlapping_workload(
        queries, overlap_rate=1.0, seed=config.seed + 6, burst_size=12
    )
    evaluator = scheduler._evaluator(workload)
    genes = [query.query_id for query in workload.queries]
    arrival_order = [q.query_id for q in workload.sorted_by_arrival()]

    def fitness(permutation: list[int]) -> float:
        return evaluator.evaluate(permutation).total_information_value

    ga = GeneticAlgorithm(genes, fitness, config=fig9.ga, seed=config.seed)
    ga_result = ga.run(seed_chromosomes=[arrival_order])
    budget = max(ga_result.fitness_calls, 2)

    random_result = random_search(
        genes, fitness, budget, seed=config.seed,
        seed_chromosome=arrival_order,
    )
    climb_result = hill_climb(
        genes, fitness, budget, seed=config.seed,
        seed_chromosome=arrival_order,
    )

    table = ResultTable(
        title=f"ABL5: workload-order search strategies (budget = {budget} "
        "distinct evaluations for the GA; equal raw budget for others)",
        headers=["strategy", "total_iv", "evaluations"],
    )
    table.add("arrival-order", fitness(arrival_order), 1)
    table.add("random-search", random_result.best_fitness,
              random_result.evaluations)
    table.add("hill-climb", climb_result.best_fitness,
              climb_result.evaluations)
    table.add("genetic-algorithm", ga_result.best_fitness,
              ga_result.fitness_calls)
    return table
