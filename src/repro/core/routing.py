"""Precalculated routing for registered queries (paper Section 3.1).

"If all queries are registered in advance and a QoS aware replication
manager is deployed to ensure updates to a table propagated to its replica
in DSS within a pre-defined time frame, information values of all queries
can be pre-calculated for routing."

A :class:`RoutingTable` exploits the structure of the plan space: between
two consecutive synchronization completions of a query's replicas, the
optimizer's decision depends only on the *current freshness vector* of
those replicas — which is constant on that interval up to a uniform time
shift.  The table therefore precomputes, for every registered query and
every sync interval inside a horizon, the chosen plan *shape* (remote set +
which sync point, if any, to delay to), and answers routing requests with a
dictionary lookup plus one plan materialisation.

Because the trade-off can flip *within* an interval (delaying gets cheaper
as the next sync approaches), a lookup does not blindly reuse the
interval's shape: it materialises every *distinct* shape the table learned
for the query (a handful) at the actual submission instant and returns the
best.  That keeps routing a constant-size evaluation — no time-line walk,
no bound search — while staying exact whenever the optimal shape occurs
anywhere in the table.  Equivalence and lookup speed are covered by the
routing tests and the ABL4 benchmark.
"""

from __future__ import annotations

import bisect
import typing
from dataclasses import dataclass

from repro.core.enumeration import CostProvider, make_plan, split_tables
from repro.core.optimizer import IVQPOptimizer, SearchDiagnostics
from repro.core.plan import QueryPlan
from repro.core.value import DiscountRates
from repro.errors import OptimizationError
from repro.federation.catalog import Catalog

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import DSSQuery

__all__ = ["PlanShape", "RoutingTable", "PrecomputedRouter"]


@dataclass(frozen=True)
class PlanShape:
    """The reusable part of a routing decision.

    Attributes
    ----------
    remote_tables:
        Which tables the chosen plan reads remotely.
    delay_syncs:
        How many of the query's upcoming sync completions to wait for
        before starting (0 = execute immediately).
    """

    remote_tables: frozenset[str]
    delay_syncs: int


@dataclass
class RoutingStats:
    """Hit/miss accounting of a routing table."""

    lookups: int = 0
    hits: int = 0
    fallbacks: int = 0
    #: Plans built and costed to answer lookups, fallbacks included.
    plans_evaluated: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the table."""
        return self.hits / self.lookups if self.lookups else 0.0


class RoutingTable:
    """Precomputed plan shapes for a registered query set."""

    def __init__(
        self,
        catalog: Catalog,
        cost_provider: CostProvider,
        default_rates: DiscountRates,
        horizon: float,
        start: float = 0.0,
    ) -> None:
        if horizon <= start:
            raise OptimizationError("routing horizon must exceed its start")
        self.catalog = catalog
        self.cost_provider = cost_provider
        self.default_rates = default_rates
        self.start = float(start)
        self.horizon = float(horizon)
        self.stats = RoutingStats()
        self._optimizer = IVQPOptimizer(catalog, cost_provider, default_rates)
        # query -> (interval start times, shape per interval, distinct shapes)
        self._entries: dict[
            "DSSQuery", tuple[list[float], list[PlanShape], list[PlanShape]]
        ] = {}

    # -- registration --------------------------------------------------------

    def register(self, query: "DSSQuery") -> int:
        """Precompute routing decisions for one query; returns #intervals."""
        self.catalog.validate_query_tables(query.tables)
        boundaries = self._interval_starts(query)
        shapes = [
            self._shape_of(self._optimizer.choose_plan(query, at), query, at)
            for at in boundaries
        ]
        # Candidate pool for lookups: every observed shape, plus the same
        # remote set one sync shallower/deeper (a submission falling just
        # after a completion shifts which sync is worth waiting for by one).
        pool: dict[PlanShape, None] = {}
        for shape in shapes:
            for delay in (
                max(shape.delay_syncs - 1, 0),
                shape.delay_syncs,
                shape.delay_syncs + 1,
            ):
                pool[PlanShape(shape.remote_tables, delay)] = None
        # The scatter incumbent (all base tables, immediately) is always a
        # candidate: mid-interval, when every replica has gone stale, it can
        # beat every boundary-observed shape.
        pool[PlanShape(frozenset(query.tables), 0)] = None
        self._entries[query] = (boundaries, shapes, list(pool))
        return len(boundaries)

    def register_all(self, queries) -> int:
        """Register many queries; returns the total interval count."""
        return sum(self.register(query) for query in queries)

    @property
    def registered(self) -> int:
        """Number of registered queries."""
        return len(self._entries)

    def _interval_starts(self, query: "DSSQuery") -> list[float]:
        replicated, _ = split_tables(query, self.catalog)
        points = {self.start}
        for name in replicated:
            replica = self.catalog.replica(name)
            points.update(
                replica.schedule.completions_between(self.start, self.horizon)
            )
        return sorted(points)

    def _shape_of(
        self, plan: QueryPlan, query: "DSSQuery", submitted_at: float
    ) -> PlanShape:
        if not plan.delayed:
            return PlanShape(plan.remote_tables, 0)
        # Count the sync completions between submission and the start.
        replicated, _ = split_tables(query, self.catalog)
        count = 0
        time_line = submitted_at
        while time_line < plan.start_time - 1e-9:
            time_line = min(
                self.catalog.replica(name).next_sync_after(time_line)
                for name in replicated
            )
            count += 1
        return PlanShape(plan.remote_tables, count)

    # -- routing -----------------------------------------------------------------

    def route(self, query: "DSSQuery", submitted_at: float) -> QueryPlan:
        """A plan for ``query`` at ``submitted_at`` via table lookup.

        Falls back to a live optimizer run for unregistered queries or
        submissions outside the precomputed horizon (counted in
        :attr:`stats`).
        """
        self.stats.lookups += 1
        entry = self._entries.get(query)
        if entry is None or not self.start <= submitted_at <= self.horizon:
            self.stats.fallbacks += 1
            diagnostics = SearchDiagnostics()
            plan = self._optimizer.choose_plan(query, submitted_at, diagnostics)
            self.stats.plans_evaluated += diagnostics.plans_evaluated
            return plan
        boundaries, shapes, distinct = entry
        index = max(bisect.bisect_right(boundaries, submitted_at) - 1, 0)
        self.stats.hits += 1
        candidates = [shapes[index]]
        candidates.extend(s for s in distinct if s != shapes[index])
        self.stats.plans_evaluated += len(candidates)
        best: QueryPlan | None = None
        for shape in candidates:
            plan = self._materialise(query, submitted_at, shape)
            if best is None or plan.information_value > best.information_value:
                best = plan
        assert best is not None
        return best

    def _materialise(
        self, query: "DSSQuery", submitted_at: float, shape: PlanShape
    ) -> QueryPlan:
        rates = (
            query.rates if query.rates is not None else self.default_rates
        )
        start_time = submitted_at
        if shape.delay_syncs:
            replicated, _ = split_tables(query, self.catalog)
            for _ in range(shape.delay_syncs):
                start_time = min(
                    self.catalog.replica(name).next_sync_after(start_time)
                    for name in replicated
                )
        return make_plan(
            query,
            self.catalog,
            self.cost_provider,
            rates,
            submitted_at=submitted_at,
            start_time=start_time,
            remote_tables=shape.remote_tables,
        )


class PrecomputedRouter:
    """A drop-in :class:`~repro.federation.system.Router` over a table."""

    def __init__(self, table: RoutingTable) -> None:
        self.table = table

    def choose_plan(self, query: "DSSQuery", submitted_at: float) -> QueryPlan:
        """Route via the precomputed table (live fallback when missing)."""
        return self.table.route(query, submitted_at)
