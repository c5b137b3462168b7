"""Candidate plan construction and enumeration (paper Figure 3).

For a query over tables with replicas, three versions of each replicated
table matter: the remote base table, the current replica, and the replica
after a future synchronization (reached by delaying execution).  Candidate
*start times* are therefore the submission instant plus each scheduled
synchronization completion inside the search window; at each start time,
candidate *combos* choose per table between base and replica.

Dominance pruning (the paper's discarding of plans 9, 10 and of
``{R1'', R2'}`` in Figure 3) is expressed here in two ways:

* :func:`gather_combos` only substitutes base tables for a *prefix of the
  stalest* replicas — the "gather" observation that SL is decided by the
  earliest-synchronized table, so substituting a fresher replica first can
  never help;
* the optimizer's scatter bound cuts off start times too late to win.
"""

from __future__ import annotations

import itertools
import typing
from collections.abc import Iterable

from repro.core.plan import QueryPlan, TableVersion, VersionKind
from repro.core.value import DiscountRates
from repro.errors import PlanError
from repro.federation.catalog import Catalog

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.faults import FaultPlan
    from repro.workload.query import DSSQuery


__all__ = [
    "CostProvider",
    "make_plan",
    "split_tables",
    "gather_combos",
    "all_combos",
    "sync_points_between",
    "enumerate_plans",
]


class CostProvider(typing.Protocol):
    """Anything that can compile a (query, remote-tables) combo."""

    def combo_cost(self, query: "DSSQuery", remote_tables: frozenset[str]):
        """Return a :class:`~repro.federation.costmodel.ComboCost`."""
        ...  # pragma: no cover - protocol


def split_tables(query: "DSSQuery", catalog: Catalog) -> tuple[list[str], list[str]]:
    """Partition a query's tables into (replicated, base-only)."""
    replicated, base_only = [], []
    for name in query.tables:
        if catalog.has_replica(name):
            replicated.append(name)
        else:
            base_only.append(name)
    return replicated, base_only


def make_plan(
    query: "DSSQuery",
    catalog: Catalog,
    cost_provider: CostProvider,
    rates: DiscountRates,
    submitted_at: float,
    start_time: float,
    remote_tables: frozenset[str],
) -> QueryPlan:
    """Build a fully-specified plan for one (start time, combo) choice."""
    if start_time < submitted_at:
        raise PlanError("plan start cannot precede submission")
    versions = []
    for name in query.tables:
        if name in remote_tables:
            versions.append(TableVersion(name, VersionKind.BASE, start_time))
        else:
            replica = catalog.replica(name)
            if replica is None:
                raise PlanError(
                    f"table {name!r} has no replica; it must be read remotely"
                )
            versions.append(
                TableVersion(
                    name, VersionKind.REPLICA, replica.freshness_at(start_time)
                )
            )
    cost = cost_provider.combo_cost(query, remote_tables)
    return QueryPlan(
        query=query,
        versions=tuple(versions),
        submitted_at=submitted_at,
        start_time=start_time,
        cost=cost,
        rates=rates,
    )


def _staleness_order(
    replicated: Iterable[str],
    catalog: Catalog,
    at_time: float,
) -> list[str]:
    """Replicated tables ordered stalest-first at ``at_time``."""
    return sorted(
        replicated,
        key=lambda name: (catalog.replica(name).freshness_at(at_time), name),
    )


def gather_combos(
    query: "DSSQuery",
    catalog: Catalog,
    at_time: float,
    availability: "FaultPlan | None" = None,
) -> list[frozenset[str]]:
    """Non-dominated remote-table sets at one start time (the gather step).

    Returns ``m + 1`` combos for ``m`` replicated tables: substitute the
    ``k`` stalest replicas with base-table reads, ``k = 0..m``.  Tables
    without replicas are always read remotely.

    With an ``availability`` fault plan, replicated tables whose base site
    is inside a scheduled outage at ``at_time`` are never substituted — their
    replica is the only reachable copy, so combos that would read them
    remotely are excluded up front (degraded-mode planning).
    """
    replicated, base_only = split_tables(query, catalog)
    if availability is not None:
        replicated = [
            name
            for name in replicated
            if not availability.is_site_down(catalog.table(name).site, at_time)
        ]
    order = _staleness_order(replicated, catalog, at_time)
    combos = []
    for k in range(len(order) + 1):
        combos.append(frozenset(base_only) | frozenset(order[:k]))
    return combos


def all_combos(query: "DSSQuery", catalog: Catalog) -> list[frozenset[str]]:
    """Every remote-table set (exhaustive; exponential in replica count)."""
    replicated, base_only = split_tables(query, catalog)
    combos = []
    for r in range(len(replicated) + 1):
        for subset in itertools.combinations(replicated, r):
            combos.append(frozenset(base_only) | frozenset(subset))
    return combos


def sync_points_between(
    query: "DSSQuery",
    catalog: Catalog,
    start: float,
    end: float,
    availability: "FaultPlan | None" = None,
) -> list[float]:
    """Sync completion instants of the query's replicas in ``(start, end]``.

    With an ``availability`` fault plan, completions that are scheduled to
    skip or slip are not worth delaying for and are filtered out per replica.
    """
    if end < start:
        return []
    replicated, _base_only = split_tables(query, catalog)
    points: set[float] = set()
    for name in replicated:
        replica = catalog.replica(name)
        completions = replica.schedule.completions_between(start, end)
        if availability is not None:
            site = replica.table.site
            completions = [
                time
                for time in completions
                if not availability.unreliable_sync(name, site, time)
            ]
        points.update(completions)
    return sorted(points)


def enumerate_plans(
    query: "DSSQuery",
    catalog: Catalog,
    cost_provider: CostProvider,
    rates: DiscountRates,
    submitted_at: float,
    horizon: float,
    exhaustive: bool = False,
    availability: "FaultPlan | None" = None,
) -> list[QueryPlan]:
    """All candidate plans with start times in ``[submitted_at, horizon]``.

    With ``exhaustive=True`` every base/replica combination is considered at
    every start time — the oracle the property tests compare the bounded
    scatter-and-gather search against.  Otherwise only the non-dominated
    gather combos are produced.  With an ``availability`` fault plan, combos
    reading a down site's replicated table remotely and unreliable sync
    points are excluded (see :func:`gather_combos` /
    :func:`sync_points_between`).
    """
    start_times = [submitted_at] + sync_points_between(
        query, catalog, submitted_at, horizon, availability
    )
    plans = []
    seen: set[tuple[float, frozenset[str]]] = set()
    for start_time in start_times:
        if exhaustive:
            combos = all_combos(query, catalog)
            if availability is not None:
                combos = [
                    combo
                    for combo in combos
                    if not any(
                        catalog.has_replica(name)
                        and availability.is_site_down(
                            catalog.table(name).site, start_time
                        )
                        for name in combo
                    )
                ]
        else:
            combos = gather_combos(query, catalog, start_time, availability)
        for combo in combos:
            key = (start_time, combo)
            if key in seen:
                continue
            seen.add(key)
            plans.append(
                make_plan(
                    query, catalog, cost_provider, rates,
                    submitted_at, start_time, combo,
                )
            )
    return plans
