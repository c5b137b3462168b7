"""The paper's core contribution: information values and IVQP.

* :mod:`repro.core.value` — the IV formula and discount machinery.
* :mod:`repro.core.plan` — table versions and query plans.
* :mod:`repro.core.enumeration` — candidate generation with dominance
  pruning (Figure 3) and the exhaustive oracle.
* :mod:`repro.core.optimizer` — the scatter-and-gather search (Figure 4).
* :mod:`repro.core.aging` — starvation prevention (Section 3.3).
* :mod:`repro.core.advisor` — the data placement advisor (future work).
"""

from repro import _lazy_exports

_EXPORTS = {
    "AgingPolicy": "aging",
    "DiscountRates": "value",
    "IVQPOptimizer": "optimizer",
    "PlacementAdvisor": "advisor",
    "PlacementRecommendation": "advisor",
    "PlanShape": "routing",
    "PrecomputedRouter": "routing",
    "QueryPlan": "plan",
    "RouteComparison": "explain",
    "RoutingTable": "routing",
    "SearchDiagnostics": "optimizer",
    "TableVersion": "plan",
    "VersionKind": "plan",
    "all_combos": "enumeration",
    "discount_factor": "value",
    "enumerate_plans": "enumeration",
    "explain_choice": "explain",
    "gather_combos": "enumeration",
    "information_value": "value",
    "make_plan": "enumeration",
    "max_tolerable_latency": "value",
    "split_tables": "enumeration",
    "sync_points_between": "enumeration",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
