"""The generational genetic algorithm (paper Section 3.2).

"Initially a random set of chromosomes is created for the population.  The
chromosomes are evaluated ... and the best ones are chosen to be parents.
The parents recombine to produce children ... and occasionally a mutation
may arise ...  The children are ranked based on the evaluation function,
and the best subset of the children is chosen to be the parents of the next
generation ...  The generational loop ends after some stopping condition is
met; we chose to end after 50 generations had passed."

Every chromosome is scored by one scalar ``fitness`` callable, memoised
per run: a generation's not-yet-seen chromosomes are scored in population
order, so :class:`GAResult` — including its ``fitness_calls`` /
``cache_hits`` counters — is a pure function of the genes, the fitness,
the config and the seed.
"""

from __future__ import annotations

import typing
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from math import factorial

from repro.errors import OptimizationError
from repro.mqo.chromosome import (
    crossover_permutations,
    random_permutation,
    swap_mutation,
    validate_permutation,
)
from repro.sim.rng import RandomSource

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mqo.evaluator import EvaluatorStats

__all__ = ["Fitness", "GAConfig", "GAResult", "GeneticAlgorithm"]

Fitness = Callable[[list[int]], float]


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the GA (defaults per DESIGN.md §6.4)."""

    population_size: int = 32
    generations: int = 50
    parent_fraction: float = 0.5
    mutation_rate: float = 0.2
    elitism: int = 2

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise OptimizationError("population_size must be >= 2")
        if self.generations < 1:
            raise OptimizationError("generations must be >= 1")
        if not 0.0 < self.parent_fraction <= 1.0:
            raise OptimizationError("parent_fraction must be in (0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise OptimizationError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise OptimizationError("elitism must be in [0, population_size)")


@dataclass
class GAResult:
    """Outcome of one GA run.

    ``fitness_calls`` counts real fitness-function invocations (cache
    misses); ``cache_hits`` counts chromosome scorings served from the
    memo cache.  Their sum is every scoring the run requested.
    ``generations_run`` is below the configured count when the run scored
    every permutation of its genes early and stopped; ``history`` has one
    entry per generation run plus the final ranking's.
    """

    best: list[int]
    best_fitness: float
    generations_run: int
    history: list[float] = field(default_factory=list)
    fitness_calls: int = 0
    cache_hits: int = 0
    evaluator_stats: "EvaluatorStats | None" = None


class GeneticAlgorithm:
    """Permutation GA with rank selection and elitism."""

    def __init__(
        self,
        genes: Sequence[int],
        fitness: Fitness,
        config: GAConfig | None = None,
        seed: int = 0,
        evaluator_stats: "EvaluatorStats | None" = None,
    ) -> None:
        if not genes:
            raise OptimizationError("GA needs at least one gene")
        validate_permutation(genes)
        self.genes = list(genes)
        self.fitness = fitness
        self.config = config or GAConfig()
        self.rng = RandomSource(seed, "ga")
        self.evaluator_stats = evaluator_stats
        self._cache: dict[tuple[int, ...], float] = {}
        self._fitness_calls = 0
        self._cache_hits = 0

    # -- scoring -----------------------------------------------------------

    def _score(self, chromosome: list[int]) -> float:
        """Fitness of a population member :meth:`_score_batch` has seen."""
        return self._cache[tuple(chromosome)]

    def _score_batch(self, population: Sequence[list[int]]) -> None:
        """Score a population's unseen chromosomes, in population order.

        The only place the fitness callable runs.  A chromosome already
        scored — in an earlier generation or earlier in this population —
        counts as a cache hit.
        """
        cache = self._cache
        for chromosome in population:
            key = tuple(chromosome)
            if key in cache:
                self._cache_hits += 1
            else:
                cache[key] = self.fitness(chromosome)
                self._fitness_calls += 1

    # -- evolution ---------------------------------------------------------

    def run(self, seed_chromosomes: Sequence[Sequence[int]] = ()) -> GAResult:
        """Evolve and return the best permutation found.

        ``seed_chromosomes`` lets callers inject known-good orders (e.g.
        arrival order) into the initial population.
        """
        cfg = self.config
        genes = sorted(self.genes)
        for chromosome in seed_chromosomes:
            # Every later step (crossover, mutation, the fitness itself)
            # assumes population members are permutations of the genes.
            if sorted(chromosome) != genes:
                raise OptimizationError(
                    f"seed chromosome {list(chromosome)} is not a "
                    f"permutation of the genes {self.genes}"
                )
        population: list[list[int]] = [list(c) for c in seed_chromosomes]
        while len(population) < cfg.population_size:
            population.append(random_permutation(self.genes, self.rng))
        population = population[: cfg.population_size]

        self._score_batch(population)
        history: list[float] = []
        best: list[int] = population[0]
        best_fitness = self._score(best)

        # Once every permutation is scored no later generation can find a
        # strictly better one, and `best` is the first strict maximum seen:
        # stopping leaves best, best_fitness and fitness_calls as they
        # would have ended (groups of two or three exhaust at once).
        exhausted = factorial(len(genes))
        generations_run = 0
        for _generation in range(cfg.generations):
            if len(self._cache) == exhausted:
                break
            generations_run += 1
            ranked = sorted(population, key=self._score, reverse=True)
            if self._score(ranked[0]) > best_fitness:
                best = list(ranked[0])
                best_fitness = self._score(ranked[0])
            history.append(best_fitness)

            parent_count = max(
                2, int(cfg.parent_fraction * cfg.population_size)
            )
            parents = ranked[:parent_count]

            next_population: list[list[int]] = [
                list(chromosome) for chromosome in ranked[: cfg.elitism]
            ]
            while len(next_population) < cfg.population_size:
                mother = self.rng.choice(parents)
                father = self.rng.choice(parents)
                # Population members are permutations of the genes by
                # construction, so the unchecked crossover applies.
                child = crossover_permutations(mother, father, self.rng)
                if self.rng.uniform(0.0, 1.0) < cfg.mutation_rate:
                    child = swap_mutation(child, self.rng)
                next_population.append(child)
            population = next_population
            self._score_batch(population)

        # Final ranking of the last generation.
        ranked = sorted(population, key=self._score, reverse=True)
        if self._score(ranked[0]) > best_fitness:
            best = list(ranked[0])
            best_fitness = self._score(ranked[0])
        history.append(best_fitness)

        return GAResult(
            best=best,
            best_fitness=best_fitness,
            generations_run=generations_run,
            history=history,
            fitness_calls=self._fitness_calls,
            cache_hits=self._cache_hits,
            evaluator_stats=self.evaluator_stats,
        )
