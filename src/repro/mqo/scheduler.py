"""Workload scheduling: batch MQO, plus FIFO and greedy baselines.

* :meth:`WorkloadScheduler.schedule` — the paper's MQO (Section 3.2),
  *defined as* one :class:`~repro.mqo.online.OnlineMQOScheduler` window
  over the whole workload: its conflict groups, a GA per group, dispatch.
  The batch loop it replaced is the test oracle
  (``tests/mqo_batch_oracle.py``).
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

from repro.core.aging import AgingPolicy
from repro.core.enumeration import CostProvider
from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog
from repro.mqo.evaluator import Assignment, EvaluationResult, WorkloadEvaluator
from repro.mqo.ga import GAConfig
from repro.mqo.online import OnlineConfig, OnlineDecision, OnlineMQOScheduler

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import Tracer
    from repro.workload.query import Workload

__all__ = ["WorkloadScheduler"]


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
            self.catalog, self.cost_provider, self.default_rates, workload,
            max_candidates=self.max_candidates,
        )

    # -- MQO ----------------------------------------------------------------

    def schedule(self, workload: "Workload") -> OnlineDecision:
        """GA-optimized execution order maximizing total workload IV: one
        online window over every arrival, admitting everything."""
        if len(workload) == 0:
            raise OptimizationError("cannot schedule an empty workload")
        arrivals = [workload.arrival_of(query.query_id) for query in workload]
        span = max(arrivals) - min(arrivals)
        return OnlineMQOScheduler(
            self.catalog, self.cost_provider, self.default_rates,
            self.ga_config, self.seed, self.max_candidates, self.tracer,
            config=OnlineConfig(
                window=span + 1.0, max_pending=len(workload), iv_floor=0.0,
                eager_start=False,
            ),
        ).run(workload)

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
