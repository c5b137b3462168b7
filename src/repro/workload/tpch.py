"""The 22 TPC-H queries as DSS reports.

The paper evaluates on "TPC-H benchmark data set: 6GB data and 22 queries"
(Section 4.1).  Each query carries its **physical table footprint** — with
``lineitem`` expanded to the partition tables, matching the paper's
12-table setup — and, when built from a calibrated
:class:`~repro.data.tpch.TpchInstance`, its **base work**: the mini
engine's planner estimate for that instance, compiled in advance (see
:mod:`repro.data.tpch`).
"""

from __future__ import annotations

import typing
from dataclasses import replace

from repro.errors import WorkloadError
from repro.workload.query import DSSQuery

if typing.TYPE_CHECKING:
    from repro.data.tpch import TpchInstance

__all__ = ["tpch_queries", "tpch_query", "TPCH_FOOTPRINTS"]

#: Logical table footprint of each TPC-H query (per the TPC-H specification).
TPCH_FOOTPRINTS: dict[str, tuple[str, ...]] = {
    "Q1": ("lineitem",),
    "Q2": ("part", "supplier", "partsupp", "nation", "region"),
    "Q3": ("customer", "orders", "lineitem"),
    "Q4": ("orders", "lineitem"),
    "Q5": ("customer", "orders", "lineitem", "supplier", "nation", "region"),
    "Q6": ("lineitem",),
    "Q7": ("supplier", "lineitem", "orders", "customer", "nation"),
    "Q8": ("part", "supplier", "lineitem", "orders", "customer", "nation", "region"),
    "Q9": ("part", "supplier", "lineitem", "partsupp", "orders", "nation"),
    "Q10": ("customer", "orders", "lineitem", "nation"),
    "Q11": ("partsupp", "supplier", "nation"),
    "Q12": ("orders", "lineitem"),
    "Q13": ("customer", "orders"),
    "Q14": ("lineitem", "part"),
    "Q15": ("supplier", "lineitem"),
    "Q16": ("partsupp", "part", "supplier"),
    "Q17": ("lineitem", "part"),
    "Q18": ("customer", "orders", "lineitem"),
    "Q19": ("lineitem", "part"),
    "Q20": ("supplier", "nation", "partsupp", "part", "lineitem"),
    "Q21": ("supplier", "lineitem", "orders", "nation"),
    "Q22": ("customer", "orders"),
}


def _expand_footprint(logical: tuple[str, ...], partitions: int) -> tuple[str, ...]:
    from repro.data.tpch import lineitem_partition_names

    physical: list[str] = []
    for table in logical:
        if table == "lineitem":
            physical.extend(lineitem_partition_names(partitions))
        else:
            physical.append(table)
    return tuple(physical)


def tpch_query(
    name: str,
    query_id: int,
    partitions: int = 5,
    business_value: float = 1.0,
) -> DSSQuery:
    """Build one TPC-H query as a :class:`DSSQuery`."""
    if name not in TPCH_FOOTPRINTS:
        raise WorkloadError(f"unknown TPC-H query {name!r}")
    return DSSQuery(
        query_id=query_id,
        name=name,
        tables=_expand_footprint(TPCH_FOOTPRINTS[name], partitions),
        business_value=business_value,
    )


def tpch_queries(
    instance: TpchInstance | None = None,
    partitions: int | None = None,
) -> list[DSSQuery]:
    """All 22 TPC-H queries, ids 1..22, LineItem expanded to partitions.

    With an ``instance`` each query carries the instance's calibrated base
    work; without one it has none, and a cost model estimates it from the
    row counts of the tables it reads.
    """
    if partitions is None:
        partitions = instance.partitions if instance is not None else 5
    queries = [
        tpch_query(name, query_id=index + 1, partitions=partitions)
        for index, name in enumerate(TPCH_FOOTPRINTS)
    ]
    if instance is None:
        return queries
    return [
        replace(query, base_work=instance.work_units[query.name])
        for query in queries
    ]
