"""MQO fast-path benchmark — prefix cache + compiled plans under a GA run.

A 16-query bursty workload scored by a 50-generation GA exercises the
evaluator the way each GA run of an MQO window does — batch MQO
(:meth:`WorkloadScheduler.schedule`) being one online window over the
whole workload — minus the grouping: the GA here orders every query
directly.  The benchmark asserts the two properties the fast path
promises:

* **Work reduction** — crossover/mutation children share long prefixes
  with their parents, so the prefix cache plus upper-bound pruning must
  cut the number of candidate realizations at least 3× versus a naive
  replay of every evaluated permutation.
* **Bit-identical results** — the GA winner scored through the fast path
  must realize the exact schedule (plans, begins, completions, IV) the
  naive replay (``tests/mqo_naive_oracle.py``) produces.
"""

from __future__ import annotations

from repro.core.value import DiscountRates
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.evaluator import WorkloadEvaluator
from repro.mqo.ga import GAConfig, GeneticAlgorithm
from repro.workload.query import DSSQuery, Workload

from tests.mqo_naive_oracle import evaluate_naive

NUM_TABLES = 12
NUM_SITES = 4
NUM_QUERIES = 16


def build_catalog() -> Catalog:
    catalog = Catalog()
    for index in range(NUM_TABLES):
        name = f"t{index}"
        catalog.add_table(
            TableDef(name, site=index % NUM_SITES, row_count=4_000)
        )
        catalog.add_replica(
            name,
            FixedSyncSchedule(
                [1.0 + index * 0.4 + k * 5.0 for k in range(40)],
                tail_period=5.0,
            ),
        )
    return catalog


def burst_workload() -> Workload:
    workload = Workload()
    for index in range(NUM_QUERIES):
        tables = tuple(
            f"t{(index + j) % NUM_TABLES}" for j in range(3)
        )
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                base_work=9_000.0,
            ),
            arrival=1.0 + 0.15 * index,
        )
    return workload


def build_evaluator(**kwargs) -> WorkloadEvaluator:
    catalog = build_catalog()
    cost_model = CostModel(catalog, params=CostParameters())
    rates = DiscountRates.symmetric(0.1)
    return WorkloadEvaluator(
        catalog, cost_model, rates, burst_workload(), **kwargs
    )


def run_ga(evaluator: WorkloadEvaluator, naive: bool = False):
    """The GA over every query, scored by the evaluator or, with
    ``naive``, by the oracle's from-scratch replay."""
    genes = [q.query_id for q in evaluator.workload.queries]
    if naive:
        def fitness(order):
            return evaluate_naive(evaluator, order).total_information_value
    else:
        fitness = evaluator.fitness
    ga = GeneticAlgorithm(
        genes,
        fitness,
        config=GAConfig(generations=50, population_size=32),
        seed=5,
    )
    return ga.run()


def test_mqo_fastpath_realize_reduction(benchmark, show):
    evaluator = build_evaluator()
    result = benchmark.pedantic(
        lambda: run_ga(evaluator), rounds=1, iterations=1
    )
    stats = evaluator.stats
    show(
        f"GA best IV {result.best_fitness:.4f}  "
        f"fitness_calls={result.fitness_calls} "
        f"cache_hits={result.cache_hits}\n"
        f"evaluator: {stats.summary()}"
    )

    # The fast path must realize at most a third of what naive replay would.
    assert stats.naive_realize_calls >= 3 * stats.realize_calls
    assert stats.prefix_hits > 0
    assert stats.candidates_pruned > 0

    # The winner replays bit-identically through the naive path.
    fast = evaluator.evaluate(tuple(result.best))
    naive = evaluate_naive(evaluator, tuple(result.best))
    assert len(fast.assignments) == len(naive.assignments)
    for a, b in zip(fast.assignments, naive.assignments):
        assert a.plan is b.plan
        assert a.begin == b.begin
        assert a.completed == b.completed
        assert a.data_timestamp == b.data_timestamp
    assert fast.total_information_value == naive.total_information_value


def test_mqo_fastpath_matches_naive_ga(show):
    fast_eval = build_evaluator()
    naive_eval = build_evaluator()
    fast_result = run_ga(fast_eval)
    naive_result = run_ga(naive_eval, naive=True)
    show(
        f"fast best {fast_result.best_fitness:.6f} "
        f"naive best {naive_result.best_fitness:.6f}"
    )
    assert fast_result.best == naive_result.best
    assert fast_result.best_fitness == naive_result.best_fitness
    assert fast_result.history == naive_result.history
