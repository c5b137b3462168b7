"""Query cost model: table-location combos → processing/transmission time.

Section 3.1: "we only need to compile the query four times for the
configurations {R1,R2}, {R1,T2}, {T1,R2}, and {T1,T2} to generate their
computational latencies.  And this step needs to be done only once and can
be done in advance."  :class:`CostModel.combo_cost` is that compilation —
it depends only on *which tables are read remotely*, never on timestamps,
and results are memoised per query **shape** (``tables``, ``base_work``):
every request stamped from one report template shares one
compiled entry, however many :class:`DSSQuery` objects carry it.

The cost of a combo decomposes the query's **base work** (its explicit
figure — for TPC-H, the committed calibration of :mod:`repro.data.tpch` —
or else one unit per row of the tables it reads) across those tables:

* work attributed to remote tables runs at the remote sites, grouped per
  site (legs run in parallel), at ``remote_throughput``, plus shipping a
  fraction of those tables' bytes;
* work attributed to local replicas plus per-remote-site assembly runs at
  the local federation server at ``local_throughput``;
* results are transmitted back over the network model.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import ConfigError, PlanError
from repro.federation.catalog import Catalog
from repro.federation.network import NetworkModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import DSSQuery

__all__ = ["ComboCost", "CostParameters", "CostModel", "StaticCostProvider"]

#: Work units per row for queries without explicit work (matches
#: repro.workload.generator.WORK_PER_ROW).
_FALLBACK_WORK_PER_ROW = 1.0


@dataclass(frozen=True)
class ComboCost:
    """Compiled cost of evaluating one query under one table-location combo.

    Attributes
    ----------
    site_legs:
        Remote work, ``(site_id, minutes)`` pairs; legs run in parallel.
    local_minutes:
        Work at the local federation server (replica scans + assembly).
    transmission:
        Result transmission back to the user, charged after processing.
    """

    site_legs: tuple[tuple[int, float], ...]
    local_minutes: float
    transmission: float
    #: Wall-clock processing minutes assuming no contention (derived).
    processing: float = field(init=False, repr=False, compare=False)
    #: Processing plus transmission (derived).
    total: float = field(init=False, repr=False, compare=False)
    #: Distinct remote sites involved, sorted (derived).
    remote_sites: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _leg_minutes: dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.local_minutes < 0 or self.transmission < 0:
            raise ConfigError("combo cost components must be >= 0")
        if any(minutes < 0 for _site, minutes in self.site_legs):
            raise ConfigError("combo leg minutes must be >= 0")
        # Read on every plan estimate and every commit, so derived once.
        longest_leg = max((minutes for _s, minutes in self.site_legs), default=0.0)
        processing = longest_leg + self.local_minutes
        derive = object.__setattr__
        derive(self, "processing", processing)
        derive(self, "total", processing + self.transmission)
        derive(self, "remote_sites", tuple(sorted({s for s, _m in self.site_legs})))
        # First leg wins for a repeated site, as a linear scan would.
        derive(self, "_leg_minutes", dict(reversed(self.site_legs)))

    def leg_minutes(self, site: int) -> float:
        """Remote minutes at one site (0.0 if uninvolved)."""
        return self._leg_minutes.get(site, 0.0)


@dataclass(frozen=True)
class CostParameters:
    """Calibration constants of the analytic cost model.

    Defaults put a mid-sized TPC-H query (≈8–12k work units) at roughly the
    paper's Figure 4 regime: ~2 minutes when answered fully from replicas
    and ~2 extra minutes per table that must be read remotely.
    """

    local_throughput: float = 5_000.0  # work units / minute at the DSS server
    remote_throughput: float = 1_250.0  # work units / minute at remote servers
    result_bytes: float = 2_000_000.0  # report size shipped to the user
    ship_fraction: float = 0.05  # fraction of a remote table's bytes shipped
    assembly_per_site: float = 0.2  # local minutes per involved remote site
    min_processing: float = 0.05  # floor, avoids zero-latency plans

    def __post_init__(self) -> None:
        if self.local_throughput <= 0 or self.remote_throughput <= 0:
            raise ConfigError("throughputs must be > 0")
        if not 0.0 <= self.ship_fraction <= 1.0:
            raise ConfigError("ship_fraction must be in [0, 1]")
        if self.result_bytes < 0 or self.assembly_per_site < 0:
            raise ConfigError("result_bytes/assembly_per_site must be >= 0")
        if self.min_processing < 0:
            raise ConfigError("min_processing must be >= 0")


class CostModel:
    """Compiles (query, remote-table-set) combos into :class:`ComboCost`."""

    def __init__(
        self,
        catalog: Catalog,
        network: NetworkModel | None = None,
        params: CostParameters | None = None,
    ) -> None:
        self.catalog = catalog
        self.network = network or NetworkModel()
        self.params = params or CostParameters()
        # Keyed on the query's shape, never on the query object or its id:
        # ids are only unique within one workload, and a service mints a
        # fresh object per request from a handful of templates.
        self._base_work_cache: dict[tuple, float] = {}
        self._combo_cache: dict[tuple[tuple, frozenset[str]], ComboCost] = {}
        #: Executions of :meth:`_compile` (cache misses), a work counter.
        self.compiles = 0

    # -- base work calibration -------------------------------------------------

    def base_work(self, query: "DSSQuery") -> float:
        """Total work units to evaluate ``query`` (location-independent)."""
        shape = query.cost_shape()
        cached = self._base_work_cache.get(shape)
        if cached is not None:
            return cached
        if query.base_work is not None:
            work = query.base_work
        else:
            work = _FALLBACK_WORK_PER_ROW * sum(
                self.catalog.table(name).row_count for name in query.tables
            )
        work = max(work, 1.0)
        self._base_work_cache[shape] = work
        return work

    # -- combo compilation -------------------------------------------------------

    def combo_cost(self, query: "DSSQuery", remote_tables: frozenset[str]) -> ComboCost:
        """Compiled cost when exactly ``remote_tables`` are read remotely.

        Every remote table must be one of the query's tables; tables not in
        ``remote_tables`` are read from local replicas.
        """
        key = (query.cost_shape(), remote_tables)
        cached = self._combo_cache.get(key)
        if cached is not None:
            return cached
        unknown = remote_tables - set(query.tables)
        if unknown:
            raise PlanError(
                f"combo for {query.name!r} names tables the query does not "
                f"read: {sorted(unknown)}"
            )
        cost = self._compile(query, remote_tables)
        self._combo_cache[key] = cost
        return cost

    def _work_shares(self, query: "DSSQuery") -> dict[str, float]:
        """Split the base work across tables, proportional to row counts."""
        work = self.base_work(query)
        rows = {name: self.catalog.table(name).row_count for name in query.tables}
        total_rows = sum(rows.values())
        if total_rows <= 0:
            share = work / len(query.tables)
            return {name: share for name in query.tables}
        return {name: work * rows[name] / total_rows for name in query.tables}

    def _compile(self, query: "DSSQuery", remote_tables: frozenset[str]) -> ComboCost:
        self.compiles += 1
        params = self.params
        shares = self._work_shares(query)

        per_site_work: dict[int, float] = {}
        per_site_ship: dict[int, float] = {}
        local_work = 0.0
        for name, share in shares.items():
            if name in remote_tables:
                table = self.catalog.table(name)
                per_site_work[table.site] = per_site_work.get(table.site, 0.0) + share
                per_site_ship[table.site] = (
                    per_site_ship.get(table.site, 0.0)
                    + params.ship_fraction * table.size_bytes
                )
            else:
                local_work += share

        legs = []
        for site, site_work in sorted(per_site_work.items()):
            minutes = site_work / params.remote_throughput
            minutes += self.network.transfer_time(
                per_site_ship.get(site, 0.0), site=site
            )
            legs.append((site, minutes))

        local_minutes = local_work / params.local_throughput
        local_minutes += params.assembly_per_site * len(legs)
        local_minutes += self.network.coordination_time(len(legs))
        local_minutes = max(local_minutes, params.min_processing)

        transmission = (
            self.network.transfer_time(params.result_bytes)
            if params.result_bytes > 0
            else 0.0
        )
        return ComboCost(
            site_legs=tuple(legs),
            local_minutes=local_minutes,
            transmission=transmission,
        )


class StaticCostProvider:
    """Hand-specified combo costs, for worked examples and tests.

    The paper's Figure 4 walkthrough "assume[s] the computation time is 2 if
    the query evaluation only uses the replications and 4, 6, 8, and 10 if
    the query evaluation involves 1, 2, 3, and 4 base tables" — this class
    expresses exactly such assumptions.  Costs are a function of the number
    of remote tables (``by_remote_count``) with optional per-combo overrides
    (``overrides`` keyed by frozenset of table names).
    """

    def __init__(
        self,
        catalog: Catalog,
        by_remote_count: dict[int, float],
        overrides: dict[frozenset[str], float] | None = None,
        transmission: float = 0.0,
        remote_leg_fraction: float = 1.0,
    ) -> None:
        if not by_remote_count:
            raise ConfigError("by_remote_count must not be empty")
        if any(value < 0 for value in by_remote_count.values()):
            raise ConfigError("combo costs must be >= 0")
        if not 0.0 <= remote_leg_fraction <= 1.0:
            raise ConfigError("remote_leg_fraction must be in [0, 1]")
        self.catalog = catalog
        self.by_remote_count = dict(by_remote_count)
        self.overrides = dict(overrides or {})
        self.transmission = transmission
        self.remote_leg_fraction = remote_leg_fraction

    def combo_cost(self, query: "DSSQuery", remote_tables: frozenset[str]) -> ComboCost:
        """Combo cost per the hand-specified table."""
        unknown = remote_tables - set(query.tables)
        if unknown:
            raise PlanError(
                f"combo for {query.name!r} names tables the query does not "
                f"read: {sorted(unknown)}"
            )
        total = self.overrides.get(remote_tables)
        if total is None:
            count = len(remote_tables)
            if count not in self.by_remote_count:
                raise PlanError(
                    f"no cost specified for {count} remote tables "
                    f"(query {query.name!r})"
                )
            total = self.by_remote_count[count]
        if not remote_tables:
            return ComboCost((), total, self.transmission)
        # Attribute a fraction of the time to one representative remote leg
        # per involved site so executors still exercise remote resources.
        sites = sorted({self.catalog.table(name).site for name in remote_tables})
        remote_minutes = total * self.remote_leg_fraction
        per_leg = remote_minutes  # legs are parallel: each takes the full span
        legs = tuple((site, per_leg) for site in sites)
        return ComboCost(legs, total - remote_minutes, self.transmission)
