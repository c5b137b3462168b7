"""Multi-query optimization: conflict grouping, GA, workload scheduling."""

from repro import _lazy_exports

_EXPORTS = {
    "Assignment": "evaluator",
    "EvaluationResult": "evaluator",
    "EvaluatorStats": "evaluator",
    "ExecutionRange": "conflict",
    "GAConfig": "ga",
    "GAResult": "ga",
    "GeneticAlgorithm": "ga",
    "OnlineConfig": "online",
    "OnlineDecision": "online",
    "OnlineMQOScheduler": "online",
    "OnlineStats": "online",
    "WindowRecord": "online",
    "SearchResult": "search_baselines",
    "WorkloadEvaluator": "evaluator",
    "WorkloadScheduler": "scheduler",
    "hill_climb": "search_baselines",
    "random_search": "search_baselines",
    "order_crossover": "chromosome",
    "random_permutation": "chromosome",
    "swap_mutation": "chromosome",
    "validate_permutation": "chromosome",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
