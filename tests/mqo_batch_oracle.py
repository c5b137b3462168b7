"""The test oracle for batch MQO: the sweep line and the batch loop.

Production batch MQO is a one-window online run
(:meth:`repro.mqo.scheduler.WorkloadScheduler.schedule`), and production
group formation is :class:`repro.mqo.conflict.IncrementalConflictGroups`.
This module keeps the independent implementations they replaced, so the
equivalence properties compare two designs rather than one path with
itself:

* :func:`execution_ranges` + :func:`conflict_groups` — the from-scratch
  sweep line over a range set (``tests/test_mqo_conflict_incremental.py``
  and ``TestIncrementalGroupsMatchSweep`` hold the incremental index to
  it);
* :class:`BatchScheduler` — the paper's Section 3.2 loop as it ran before
  (sweep the whole workload into groups, GA-order each group seeded from
  arrival order, realize the concatenated permutation once);
  ``tests/test_mqo_online_properties.py`` holds ``schedule`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OptimizationError
from repro.mqo.conflict import ExecutionRange
from repro.mqo.evaluator import (
    EvaluationResult,
    EvaluatorStats,
    WorkloadEvaluator,
)
from repro.mqo.ga import GAConfig, GAResult, GeneticAlgorithm

__all__ = [
    "BatchDecision",
    "BatchScheduler",
    "conflict_groups",
    "execution_ranges",
]


def execution_ranges(
    evaluator: WorkloadEvaluator,
    query_ids: list[int] | None = None,
) -> list[ExecutionRange]:
    """Derive each query's candidate execution range from its plan set.

    ``query_ids`` restricts the ranges to a subset of the workload (the
    online scheduler re-groups only not-yet-started queries); ``None``
    covers the whole workload.  Ranges are served from the evaluator's
    per-query cache (:meth:`WorkloadEvaluator.range_of`): candidate plan
    sets are immutable per query, so a range is derived exactly once.
    """
    if query_ids is None:
        ids = [query.query_id for query in evaluator.workload.queries]
    else:
        ids = list(query_ids)
    ranges = []
    for qid in ids:
        start, end = evaluator.range_of(qid)
        ranges.append(ExecutionRange(qid, start, end))
    return ranges


def ranges_overlap(left: ExecutionRange, right: ExecutionRange) -> bool:
    """Whether two ranges conflict (the interval-graph edge relation).

    Half-open semantics: ranges that merely touch at one instant
    (``left.end == right.start``) do not overlap.  For positive-length
    ranges this is exactly "the intersection has positive length"; a
    zero-length range ``[x, x)`` conflicts with ranges *strictly*
    straddling ``x`` (its instant is busy) but not with ones starting or
    ending exactly there.
    """
    return left.start < right.end and right.start < left.end


def conflict_groups(ranges: list[ExecutionRange]) -> list[list[int]]:
    """Connected components of the range-overlap graph (sweep line).

    Returns groups of query ids; singleton groups are queries that never
    contend and can be planned individually.  Consistent with
    :func:`ranges_overlap`, a range starting exactly where the
    previous group ends opens a *new* group (half-open semantics).

    Groups come out in sweep order — by their first member's
    ``(start, end, query_id)`` key, members in that same key order — which
    is what :meth:`IncrementalConflictGroups.groups` reproduces.
    """
    ordered = sorted(ranges, key=lambda r: (r.start, r.end, r.query_id))
    groups: list[list[int]] = []
    current: list[int] = []
    current_end = float("-inf")
    for rng in ordered:
        if current and rng.start < current_end:
            current.append(rng.query_id)
            current_end = max(current_end, rng.end)
        else:
            if current:
                groups.append(current)
            current = [rng.query_id]
            current_end = rng.end
    if current:
        groups.append(current)
    return groups


@dataclass
class BatchDecision:
    """The batch loop's output."""

    result: EvaluationResult
    permutation: list[int]
    groups: list[list[int]]
    ga_results: list[GAResult] = field(default_factory=list)
    evaluator_stats: EvaluatorStats | None = None

    @property
    def total_information_value(self) -> float:
        """Workload objective value."""
        return self.result.total_information_value


class BatchScheduler:
    """Multi-query optimization in the scheduling sense (Section 3.2)."""

    def __init__(
        self,
        catalog,
        cost_provider,
        default_rates,
        ga_config: GAConfig | None = None,
        seed: int = 0,
        max_candidates: int = 64,
    ) -> None:
        self.catalog = catalog
        self.cost_provider = cost_provider
        self.default_rates = default_rates
        self.ga_config = ga_config or GAConfig()
        self.seed = seed
        self.max_candidates = max_candidates

    def schedule(self, workload) -> BatchDecision:
        """GA-optimized execution order maximizing total workload IV."""
        if len(workload) == 0:
            raise OptimizationError("cannot schedule an empty workload")
        evaluator = WorkloadEvaluator(
            self.catalog,
            self.cost_provider,
            self.default_rates,
            workload,
            max_candidates=self.max_candidates,
        )
        ranges = execution_ranges(evaluator)
        groups = conflict_groups(ranges)

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
            )
            outcome = ga.run(seed_chromosomes=[seed_order])
            ga_results.append(outcome)
            group_orders[index] = outcome.best

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
        return BatchDecision(
            result=result,
            permutation=permutation,
            groups=groups,
            ga_results=ga_results,
            evaluator_stats=evaluator.stats,
        )
