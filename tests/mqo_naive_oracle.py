"""The test oracle for the workload evaluator: the naive replay.

Production scoring is :class:`repro.mqo.evaluator.WorkloadEvaluator`'s
compiled walk (prefix cache, upper-bound pruning, dense clocks, dispatch
memo).  This module keeps the straightforward replay that walk must
equal bit for bit: per query in order, realize every candidate against
the catalog (``_realize``), keep the first strict IV maximum and commit
it (``_commit``) — no caches, no bounds.  The fast-path properties and
``benchmarks/test_mqo_perf.py`` hold the evaluator to it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import OptimizationError
from repro.mqo.evaluator import Assignment, EvaluationResult, WorkloadEvaluator

__all__ = ["best_naive", "evaluate_naive"]


def best_naive(
    evaluator: WorkloadEvaluator, query_id: int, free_at: dict[int, float]
) -> Assignment:
    """First strict IV maximum over every candidate's realization."""
    compiled = evaluator._compiled_query(query_id)
    best: Assignment | None = None
    for candidate in compiled.candidates:
        assignment = evaluator._realize(compiled, candidate, free_at)
        if best is None or (
            assignment.information_value > best.information_value
        ):
            best = assignment
    return best


def evaluate_naive(
    evaluator: WorkloadEvaluator, order: Sequence[int]
) -> EvaluationResult:
    """Replay ``order`` from the evaluator's base clocks, no caches.

    Accepts any distinct-id sequence, like
    :meth:`~WorkloadEvaluator.evaluate_sequence`.
    """
    if len(set(order)) != len(order):
        raise OptimizationError("sequence must not repeat query ids")
    free_at = dict(zip(evaluator._site_ids, evaluator._base))
    result = EvaluationResult()
    for query_id in order:
        best = best_naive(evaluator, query_id, free_at)
        evaluator._commit(best, free_at)
        result.assignments.append(best)
    return result
