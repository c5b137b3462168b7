"""Workload scheduling: MQO via GA, plus FIFO and greedy baselines.

* :meth:`WorkloadScheduler.schedule` — the paper's MQO: form conflict
  groups, GA-optimize each group's execution order, realize the combined
  schedule.
* :meth:`WorkloadScheduler.fifo` — "without MQO": queries run in arrival
  order, each carrying the plan that is optimal *for it alone*; contention
  is then suffered, not planned for.
* :meth:`WorkloadScheduler.greedy_dispatch` — an event-driven dispatcher
  choosing, at each step, the waiting query with the highest priority;
  with an :class:`~repro.core.aging.AgingPolicy` this is the paper's
  starvation-prevention scheduler (Section 3.3).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.core.aging import AgingPolicy
from repro.core.enumeration import CostProvider
from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog
from repro.mqo.conflict import conflict_groups, execution_ranges
from repro.mqo.evaluator import (
    Assignment,
    EvaluationResult,
    EvaluatorStats,
    WorkloadEvaluator,
)
from repro.mqo.ga import GAConfig, GAResult, GeneticAlgorithm
from repro.obs import events

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import Tracer
    from repro.workload.query import Workload

__all__ = ["ScheduleDecision", "WorkloadScheduler"]


@dataclass
class ScheduleDecision:
    """The MQO scheduler's output."""

    result: EvaluationResult
    permutation: list[int]
    groups: list[list[int]]
    ga_results: list[GAResult] = field(default_factory=list)
    evaluator_stats: EvaluatorStats | None = None

    @property
    def total_information_value(self) -> float:
        """Workload objective value."""
        return self.result.total_information_value

    @property
    def mean_information_value(self) -> float:
        """Mean per-query realized IV."""
        return self.result.mean_information_value


class WorkloadScheduler:
    """Multi-query optimization in the scheduling sense (Section 3.2)."""

    def __init__(
        self,
        catalog: Catalog,
        cost_provider: CostProvider,
        default_rates: DiscountRates,
        ga_config: GAConfig | None = None,
        seed: int = 0,
        max_candidates: int = 64,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.catalog = catalog
        self.cost_provider = cost_provider
        self.default_rates = default_rates
        self.ga_config = ga_config or GAConfig()
        self.seed = seed
        self.max_candidates = max_candidates
        self.tracer = tracer

    def _evaluator(self, workload: "Workload") -> WorkloadEvaluator:
        return WorkloadEvaluator(
            self.catalog,
            self.cost_provider,
            self.default_rates,
            workload,
            max_candidates=self.max_candidates,
        )

    # -- MQO ----------------------------------------------------------------

    def schedule(self, workload: "Workload") -> ScheduleDecision:
        """GA-optimized execution order maximizing total workload IV."""
        if len(workload) == 0:
            raise OptimizationError("cannot schedule an empty workload")
        evaluator = self._evaluator(workload)
        ranges = execution_ranges(evaluator)
        groups = conflict_groups(ranges)
        if self.tracer is not None:
            self.tracer.emit(
                events.MQO_GROUPS, "workload",
                groups=len(groups),
                sizes=[len(group) for group in groups],
            )

        arrival_order = [
            query.query_id for query in workload.sorted_by_arrival()
        ]
        group_orders: dict[int, list[int]] = {}
        ga_results: list[GAResult] = []
        for index, group in enumerate(groups):
            if len(group) < 2:
                group_orders[index] = list(group)
                continue
            group_set = set(group)
            seed_order = [qid for qid in arrival_order if qid in group_set]
            ga = GeneticAlgorithm(
                genes=group,
                fitness=evaluator.sequence_fitness,
                config=self.ga_config,
                seed=self.seed + index,
                evaluator_stats=evaluator.stats,
            )
            outcome = ga.run(seed_chromosomes=[seed_order])
            ga_results.append(outcome)
            group_orders[index] = outcome.best
            if self.tracer is not None:
                self.tracer.emit(
                    events.MQO_GA, f"group:{index}",
                    best_fitness=outcome.best_fitness,
                    generations=outcome.generations_run,
                    order=list(outcome.best),
                )

        # Groups are disjoint in time; realize them in start order.
        ordered_groups = sorted(
            range(len(groups)),
            key=lambda index: min(
                workload.arrival_of(qid) for qid in groups[index]
            ),
        )
        permutation: list[int] = []
        for index in ordered_groups:
            permutation.extend(group_orders[index])
        result = evaluator.evaluate(permutation)
        if self.tracer is not None:
            self.tracer.emit(
                events.MQO_ORDER, "workload",
                permutation=list(permutation),
                total_iv=result.total_information_value,
            )
        return ScheduleDecision(
            result=result,
            permutation=permutation,
            groups=groups,
            ga_results=ga_results,
            evaluator_stats=evaluator.stats,
        )

    # -- baselines ---------------------------------------------------------------

    def fifo(self, workload: "Workload") -> EvaluationResult:
        """Without MQO: arrival order, individually-optimal plans.

        Each query keeps the plan an isolated IVQP run would pick (its best
        candidate, which ignores other queries); contention then delays it.
        """
        if len(workload) == 0:
            raise OptimizationError("cannot schedule an empty workload")
        evaluator = self._evaluator(workload)
        free_at: dict[int, float] = {}
        result = EvaluationResult()
        for query in workload.sorted_by_arrival():
            compiled = evaluator._compiled_query(query.query_id)
            assignment = evaluator._realize(
                compiled, compiled.candidates[0], free_at  # isolated optimum
            )
            evaluator._commit(assignment, free_at)
            result.assignments.append(assignment)
        return result

    def greedy_dispatch(
        self,
        workload: "Workload",
        aging: AgingPolicy | None = None,
    ) -> EvaluationResult:
        """Event-driven dispatcher; with ``aging`` it prevents starvation.

        At each decision instant the dispatcher considers every *arrived*
        unscheduled query and runs the one with the highest priority —
        realized IV, plus the aging boost for its waiting time when an
        :class:`~repro.core.aging.AgingPolicy` is supplied (Section 3.3).
        """
        if len(workload) == 0:
            raise OptimizationError("cannot schedule an empty workload")
        if aging is not None:
            aging.validate_against(self.default_rates)
        evaluator = self._evaluator(workload)
        pending = {
            query.query_id: workload.arrival_of(query.query_id)
            for query in workload.queries
        }
        free_at: dict[int, float] = {}
        result = EvaluationResult()
        clock = min(pending.values())
        while pending:
            arrived = {qid: t for qid, t in pending.items() if t <= clock}
            if not arrived:
                clock = min(pending.values())
                continue
            best_qid = None
            best_assignment: Assignment | None = None
            best_priority = float("-inf")
            for qid, arrival in sorted(arrived.items()):
                chosen = evaluator.choose_best(qid, free_at)
                priority = chosen.information_value
                if aging is not None:
                    priority += aging.boost(
                        workload.query(qid).business_value,
                        max(0.0, clock - arrival),
                    )
                if priority > best_priority:
                    best_priority = priority
                    best_qid = qid
                    best_assignment = chosen
            assert best_qid is not None and best_assignment is not None
            evaluator._commit(best_assignment, free_at)
            result.assignments.append(best_assignment)
            del pending[best_qid]
            # The next dispatch decision happens when the chosen query has
            # actually completed — remote legs and result transmission
            # included, not just local processing — so queries arriving
            # while results are still in flight compete with whatever is
            # waiting (this is what makes starvation possible, and what
            # aging then prevents).
            clock = max(clock, best_assignment.completed)
        return result
