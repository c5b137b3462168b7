"""IVQP: the scatter-and-gather plan search (paper Section 3.1, Figure 4).

The search maximises information value over *when* to start and *which*
table versions to read:

1. **Scatter** — evaluate the all-base-tables immediate plan.  Its IV is the
   incumbent ``opt``; since any plan's IV is at most
   ``BV × (1 − λ_CL)^CL`` (synchronization discount can only lower it),
   no plan whose computational latency exceeds
   ``CL_max = log(opt/BV)/log(1 − λ_CL)`` can win, bounding the explored
   time line at ``b = t_q + CL_max``.

2. **Gather** — at the submission instant and then at each successive
   scheduled synchronization completion ≤ ``b``, order the query's replicas
   stalest-first and evaluate the ``m + 1`` prefix-substitution combos
   (the stalest replica is the one worth replacing with a base read, since
   SL is decided by the earliest-synchronized table).  Each improvement
   tightens ``b``.

The exhaustive enumerator from :mod:`repro.core.enumeration` serves as the
test oracle for this search.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.core.enumeration import (
    CostProvider,
    gather_combos,
    make_plan,
    split_tables,
)
from repro.core.plan import QueryPlan
from repro.core.value import DiscountRates, max_tolerable_latency
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.faults import FaultPlan
    from repro.workload.query import DSSQuery

__all__ = ["SearchDiagnostics", "IVQPOptimizer"]


@dataclass
class SearchDiagnostics:
    """Instrumentation of one scatter-and-gather run."""

    plans_evaluated: int = 0
    time_lines_visited: int = 0
    final_bound: float = 0.0
    bound_tightenings: int = 0
    improvements: list[float] = field(default_factory=list)
    #: True when the walk stopped at ``max_time_lines`` with time lines
    #: still inside the scatter bound — the search space was truncated,
    #: not exhausted by the bound.
    exhausted: bool = False


class IVQPOptimizer:
    """Information value-driven query plan selection."""

    def __init__(
        self,
        catalog: Catalog,
        cost_provider: CostProvider,
        default_rates: DiscountRates,
        max_time_lines: int = 10_000,
        availability: "FaultPlan | None" = None,
    ) -> None:
        if max_time_lines < 1:
            raise OptimizationError("max_time_lines must be >= 1")
        self.catalog = catalog
        self.cost_provider = cost_provider
        self.default_rates = default_rates
        self.max_time_lines = max_time_lines
        #: Scheduled faults for degraded-mode planning: down sites'
        #: replicated tables are kept on their replicas and sync points
        #: that will skip or slip are not worth delaying for.
        self.availability = availability

    def rates_for(self, query: "DSSQuery") -> DiscountRates:
        """Per-query rates if set, otherwise the system default."""
        return query.rates if query.rates is not None else self.default_rates

    # -- main entry point -----------------------------------------------------

    def choose_plan(
        self,
        query: "DSSQuery",
        submitted_at: float,
        diagnostics: SearchDiagnostics | None = None,
    ) -> QueryPlan:
        """The IV-maximal plan for a query submitted at ``submitted_at``."""
        self.catalog.validate_query_tables(query.tables)
        rates = self.rates_for(query)
        diag = diagnostics if diagnostics is not None else SearchDiagnostics()

        # Scatter: the all-base immediate plan always exists and seeds the
        # bound.  (If only base tables are involved, executing immediately
        # dominates any delay — the paper's parenthetical observation.)
        # Under a fault plan, replicated tables whose base site is
        # down at submission fall back to their replicas in the seed too.
        all_base = frozenset(query.tables)
        seed_combo = all_base
        if self.availability is not None:
            seed_combo = frozenset(
                name
                for name in query.tables
                if not (
                    self.catalog.has_replica(name)
                    and self.availability.is_site_down(
                        self.catalog.table(name).site, submitted_at
                    )
                )
            )
        best = make_plan(
            query, self.catalog, self.cost_provider, rates,
            submitted_at, submitted_at, seed_combo,
        )
        diag.plans_evaluated += 1
        bound = self._bound(query, best, submitted_at, rates)
        diag.final_bound = bound

        replicated, _ = split_tables(query, self.catalog)
        if not replicated:
            return best

        time_line = submitted_at
        visited = 0
        # ``bound`` is infinite when lambda_cl == 0, and ``_next_sync_point``
        # returns inf once no replica has a reliable future sync; an infinite
        # time line has nothing to evaluate, so it ends the walk rather than
        # satisfying ``inf <= inf``.
        while time_line <= bound and time_line != float("inf") and (
            visited < self.max_time_lines
        ):
            visited += 1
            diag.time_lines_visited += 1
            for combo in gather_combos(
                query, self.catalog, time_line, self.availability
            ):
                if combo == all_base and time_line > submitted_at:
                    # Delaying an all-base plan only adds CL; dominated.
                    continue
                candidate = make_plan(
                    query, self.catalog, self.cost_provider, rates,
                    submitted_at, time_line, combo,
                )
                diag.plans_evaluated += 1
                if candidate.information_value > best.information_value:
                    best = candidate
                    diag.improvements.append(candidate.information_value)
                    new_bound = self._bound(query, best, submitted_at, rates)
                    if new_bound < bound:
                        bound = new_bound
                        diag.bound_tightenings += 1
                        diag.final_bound = bound
            time_line = self._next_sync_point(query, replicated, time_line)
        if visited >= self.max_time_lines and time_line <= bound:
            diag.exhausted = True
        return best

    # -- helpers -----------------------------------------------------------------

    def _bound(
        self,
        query: "DSSQuery",
        incumbent: QueryPlan,
        submitted_at: float,
        rates: DiscountRates,
    ) -> float:
        """Latest start time worth exploring given the incumbent IV."""
        tolerable = max_tolerable_latency(
            query.business_value,
            incumbent.information_value,
            rates.computational,
        )
        return submitted_at + tolerable

    #: How many scheduled-but-unreliable completions to look past per
    #: replica before giving up on that replica's timeline.
    _UNRELIABLE_LOOKAHEAD = 32

    def _next_sync_point(
        self,
        query: "DSSQuery",
        replicated: list[str],
        after: float,
    ) -> float:
        """Earliest next synchronization completion among the replicas.

        Sync points that the fault plan says will skip or slip are
        not worth delaying for; the walk advances past them (bounded per
        replica so a fully-unreliable schedule cannot loop forever).
        """
        best = float("inf")
        for name in replicated:
            replica = self.catalog.replica(name)
            point = replica.next_sync_after(after)
            if self.availability is not None:
                for _attempt in range(self._UNRELIABLE_LOOKAHEAD):
                    if not self.availability.unreliable_sync(
                        name, replica.table.site, point
                    ):
                        break
                    point = replica.next_sync_after(point)
                else:
                    continue
            best = min(best, point)
        return best
