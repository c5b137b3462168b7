"""DSS-level queries and workloads.

A :class:`DSSQuery` is what the decision-support user submits: the physical
tables a report reads, the report's business value, and (optionally) the
user's discount-rate preferences and an executable
:class:`~repro.engine.query.LogicalQuery` definition for the mini engine.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace

from repro.core.value import DiscountRates
from repro.errors import WorkloadError

if typing.TYPE_CHECKING:
    from repro.engine.query import LogicalQuery

__all__ = ["DSSQuery", "Workload"]


class _ByIdentity:
    """Hashes and compares a wrapped object by ``is`` (and keeps it alive)."""

    __slots__ = ("target",)

    def __init__(self, target: object) -> None:
        self.target = target

    def __hash__(self) -> int:
        return id(self.target)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ByIdentity) and self.target is other.target


@dataclass(frozen=True, eq=False, slots=True)
class DSSQuery:
    """One decision-support report request.

    Queries compare (and hash) by *identity*: two distinct objects are
    different queries even with identical fields, so caches keyed on a
    query never collide across workloads that reuse ids.  (Field-based
    equality would also misbehave: ``logical`` holds expression trees whose
    ``==`` is overloaded to build predicates.)

    Attributes
    ----------
    query_id:
        Unique identifier within a workload.
    name:
        Human-readable label (e.g. ``"Q3"`` or ``"asset-exposure"``).
    tables:
        Names of the physical tables the report reads (LineItem partitions
        appear individually).
    business_value:
        The report's value to decision-making at zero latency.
    rates:
        Per-query discount preferences; ``None`` inherits the system default.
    logical:
        Optional engine-backed definition; when present the cost model
        calibrates this query's base work from the planner's estimate.
    base_work:
        Optional explicit work-units figure (used by synthetic workloads
        that have no logical definition).
    """

    query_id: int
    name: str
    tables: tuple[str, ...]
    business_value: float = 1.0
    rates: DiscountRates | None = None
    logical: LogicalQuery | None = None
    base_work: float | None = None

    def __post_init__(self) -> None:
        if not self.tables:
            raise WorkloadError(f"query {self.name!r} reads no tables")
        if len(set(self.tables)) != len(self.tables):
            raise WorkloadError(f"query {self.name!r} lists a table twice")
        if not 0 < self.business_value < math.inf:
            raise WorkloadError(
                f"query {self.name!r} needs a positive, finite business value"
            )
        if self.base_work is not None and self.base_work <= 0:
            raise WorkloadError(f"query {self.name!r} needs positive base work")

    def with_rates(self, rates: DiscountRates) -> "DSSQuery":
        """Copy of this query with explicit discount rates."""
        return replace(self, rates=rates)

    def with_value(self, business_value: float) -> "DSSQuery":
        """Copy of this query with a different business value."""
        return replace(self, business_value=business_value)

    def table_set(self) -> frozenset[str]:
        """The tables as a set (plans key on this)."""
        return frozenset(self.tables)

    def cost_shape(self) -> tuple:
        """Everything a table-location combo's cost may depend on.

        Requests stamped from one report template differ in id, name and
        arrival only, so caches of compiled costs key on this instead of
        on the query object.  ``logical`` enters by identity: its ``==``
        is overloaded to build predicates.
        """
        logical = self.logical
        return (
            self.tables,
            self.base_work,
            None if logical is None else _ByIdentity(logical),
        )


@dataclass
class Workload:
    """An ordered collection of queries with optional arrival times."""

    queries: list[DSSQuery] = field(default_factory=list)
    arrivals: dict[int, float] = field(default_factory=dict)
    #: Lazy ``query_id → DSSQuery`` index; rebuilt whenever it falls out of
    #: step with ``queries`` (e.g. after direct list mutation).
    _index: dict[int, DSSQuery] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len({query.query_id for query in self.queries}) != len(self.queries):
            raise WorkloadError("workload constructed with duplicate query ids")

    def _lookup(self) -> dict[int, DSSQuery]:
        index = self._index
        if index is None or len(index) != len(self.queries):
            index = {query.query_id: query for query in self.queries}
            if len(index) != len(self.queries):
                raise WorkloadError("workload contains duplicate query ids")
            self._index = index
        return index

    def add(self, query: DSSQuery, arrival: float | None = None) -> None:
        """Append a query, optionally fixing its arrival time."""
        index = self._lookup()
        if query.query_id in index:
            raise WorkloadError(f"duplicate query id {query.query_id}")
        self.queries.append(query)
        index[query.query_id] = query
        if arrival is not None:
            if arrival < 0:
                raise WorkloadError(f"arrival time must be >= 0, got {arrival}")
            self.arrivals[query.query_id] = arrival

    def arrival_of(self, query_id: int) -> float:
        """Arrival time of a query (0.0 when the query has none specified).

        Unknown ids raise :class:`WorkloadError` — a silent 0.0 here would
        disguise a wiring mistake as "arrived at t=0".
        """
        arrival = self.arrivals.get(query_id)
        if arrival is not None:
            return arrival
        if query_id not in self._lookup():
            raise WorkloadError(f"workload has no query id {query_id}")
        return 0.0

    def query(self, query_id: int) -> DSSQuery:
        """Look up a query by id."""
        try:
            return self._lookup()[query_id]
        except KeyError:
            raise WorkloadError(f"workload has no query id {query_id}") from None

    def tables_touched(self) -> set[str]:
        """Union of all tables any query reads."""
        touched: set[str] = set()
        for query in self.queries:
            touched.update(query.tables)
        return touched

    def sorted_by_arrival(self) -> list[DSSQuery]:
        """Queries ordered by arrival time (stable for ties)."""
        return sorted(self.queries, key=lambda q: self.arrival_of(q.query_id))

    def __iter__(self) -> Iterator[DSSQuery]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    @classmethod
    def from_queries(
        cls,
        queries: Iterable[DSSQuery],
        arrivals: Sequence[float] | None = None,
    ) -> "Workload":
        """Build a workload from queries and optional parallel arrival list."""
        workload = cls()
        queries = list(queries)
        if arrivals is not None and len(arrivals) != len(queries):
            raise WorkloadError("arrivals must align one-to-one with queries")
        for index, query in enumerate(queries):
            workload.add(query, arrivals[index] if arrivals is not None else None)
        return workload
