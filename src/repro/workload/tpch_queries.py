"""The 22 TPC-H queries as DSS reports.

The paper evaluates on "TPC-H benchmark data set: 6GB data and 22 queries"
(Section 4.1).  Each query here carries:

* its **physical table footprint** — with ``lineitem`` expanded to the
  partition tables, matching the paper's 12-table setup;
* a **simplified engine-executable definition** preserving the original's
  join shape and table set.  TPC-H subqueries/EXISTS blocks are flattened
  into joins or filters — the reproduction needs relative *costs* and table
  *footprints*, not answer-for-answer TPC-H compliance (the paper never
  inspects query answers either, only latencies and information values).

Dates are integer day offsets from 1992-01-01 (0..2555); the literals below
mirror the spec's cut-offs (e.g. day 730 ≈ 1994-01-01).
"""

from __future__ import annotations

import typing

from repro.errors import WorkloadError
from repro.workload.query import DSSQuery

if typing.TYPE_CHECKING:
    from repro.data.tpch import TpchInstance
    from repro.engine.query import LogicalQuery

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


def _build_logical(name: str) -> LogicalQuery:
    """The simplified engine definition of one TPC-H query."""
    from repro.engine.expr import Col, Const
    from repro.engine.query import QueryBuilder

    builder = QueryBuilder(name)
    if name == "Q1":
        return (
            builder.table("lineitem", "l")
            .where(Col("l.l_shipdate") <= Const(2400))
            .group("l.l_returnflag", "l.l_linestatus")
            .agg("sum", Col("l.l_quantity"), "sum_qty")
            .agg("sum", Col("l.l_extendedprice"), "sum_base_price")
            .agg("avg", Col("l.l_discount"), "avg_disc")
            .agg("count", None, "count_order")
            .order("l.l_returnflag", "l.l_linestatus")
            .build()
        )
    if name == "Q2":
        return (
            builder.table("part", "p").table("supplier", "s")
            .table("partsupp", "ps").table("nation", "n").table("region", "r")
            .join("p.p_partkey", "ps.ps_partkey")
            .join("s.s_suppkey", "ps.ps_suppkey")
            .join("s.s_nationkey", "n.n_nationkey")
            .join("n.n_regionkey", "r.r_regionkey")
            .where(Col("p.p_size") == Const(15))
            .where(Col("r.r_name") == Const("EUROPE"))
            .group("s.s_name")
            .agg("min", Col("ps.ps_supplycost"), "min_cost")
            .order("min_cost")
            .take(100)
            .build()
        )
    if name == "Q3":
        return (
            builder.table("customer", "c").table("orders", "o").table("lineitem", "l")
            .join("c.c_custkey", "o.o_custkey")
            .join("l.l_orderkey", "o.o_orderkey")
            .where(Col("c.c_mktsegment") == Const("BUILDING"))
            .where(Col("o.o_orderdate") < Const(1170))
            .where(Col("l.l_shipdate") > Const(1170))
            .group("l.l_orderkey", "o.o_orderdate")
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "revenue")
            .order("revenue", descending=True)
            .take(10)
            .build()
        )
    if name == "Q4":
        return (
            builder.table("orders", "o").table("lineitem", "l")
            .join("o.o_orderkey", "l.l_orderkey")
            .where(Col("o.o_orderdate") >= Const(900))
            .where(Col("o.o_orderdate") < Const(990))
            .group("o.o_orderpriority")
            .agg("count", None, "order_count")
            .order("o.o_orderpriority")
            .build()
        )
    if name == "Q5":
        return (
            builder.table("customer", "c").table("orders", "o")
            .table("lineitem", "l").table("supplier", "s")
            .table("nation", "n").table("region", "r")
            .join("c.c_custkey", "o.o_custkey")
            .join("l.l_orderkey", "o.o_orderkey")
            .join("l.l_suppkey", "s.s_suppkey")
            .join("c.c_nationkey", "n.n_nationkey")
            .join("n.n_regionkey", "r.r_regionkey")
            .where(Col("r.r_name") == Const("ASIA"))
            .where(Col("o.o_orderdate") >= Const(730))
            .where(Col("o.o_orderdate") < Const(1095))
            .group("n.n_name")
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "revenue")
            .order("revenue", descending=True)
            .build()
        )
    if name == "Q6":
        return (
            builder.table("lineitem", "l")
            .where(Col("l.l_shipdate") >= Const(730))
            .where(Col("l.l_shipdate") < Const(1095))
            .where(Col("l.l_discount") >= Const(0.05))
            .where(Col("l.l_discount") <= Const(0.07))
            .where(Col("l.l_quantity") < Const(24.0))
            .agg("sum", Col("l.l_extendedprice") * Col("l.l_discount"), "revenue")
            .build()
        )
    if name == "Q7":
        return (
            builder.table("supplier", "s").table("lineitem", "l")
            .table("orders", "o").table("customer", "c")
            .table("nation", "n1").table("nation", "n2")
            .join("s.s_suppkey", "l.l_suppkey")
            .join("o.o_orderkey", "l.l_orderkey")
            .join("c.c_custkey", "o.o_custkey")
            .join("s.s_nationkey", "n1.n_nationkey")
            .join("c.c_nationkey", "n2.n_nationkey")
            .where(Col("n1.n_name") == Const("FRANCE"))
            .where(Col("l.l_shipdate") >= Const(1095))
            .group("n2.n_name")
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "revenue")
            .build()
        )
    if name == "Q8":
        return (
            builder.table("part", "p").table("supplier", "s")
            .table("lineitem", "l").table("orders", "o")
            .table("customer", "c").table("nation", "n1")
            .table("nation", "n2").table("region", "r")
            .join("p.p_partkey", "l.l_partkey")
            .join("s.s_suppkey", "l.l_suppkey")
            .join("l.l_orderkey", "o.o_orderkey")
            .join("o.o_custkey", "c.c_custkey")
            .join("c.c_nationkey", "n1.n_nationkey")
            .join("n1.n_regionkey", "r.r_regionkey")
            .join("s.s_nationkey", "n2.n_nationkey")
            .where(Col("r.r_name") == Const("AMERICA"))
            .where(Col("p.p_type") == Const("ECONOMY POLISHED BRASS"))
            .group("n2.n_name")
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "volume")
            .build()
        )
    if name == "Q9":
        return (
            builder.table("part", "p").table("supplier", "s")
            .table("lineitem", "l").table("partsupp", "ps")
            .table("orders", "o").table("nation", "n")
            .join("s.s_suppkey", "l.l_suppkey")
            .join("ps.ps_suppkey", "l.l_suppkey")
            .join("ps.ps_partkey", "l.l_partkey")
            .join("p.p_partkey", "l.l_partkey")
            .join("o.o_orderkey", "l.l_orderkey")
            .join("s.s_nationkey", "n.n_nationkey")
            .where(Col("p.p_brand") == Const("Brand#23"))
            .group("n.n_name")
            .agg("sum",
                 Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount"))
                 - Col("ps.ps_supplycost") * Col("l.l_quantity"),
                 "sum_profit")
            .build()
        )
    if name == "Q10":
        return (
            builder.table("customer", "c").table("orders", "o")
            .table("lineitem", "l").table("nation", "n")
            .join("c.c_custkey", "o.o_custkey")
            .join("l.l_orderkey", "o.o_orderkey")
            .join("c.c_nationkey", "n.n_nationkey")
            .where(Col("o.o_orderdate") >= Const(640))
            .where(Col("o.o_orderdate") < Const(730))
            .where(Col("l.l_returnflag") == Const("R"))
            .group("c.c_custkey", "n.n_name")
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "revenue")
            .order("revenue", descending=True)
            .take(20)
            .build()
        )
    if name == "Q11":
        return (
            builder.table("partsupp", "ps").table("supplier", "s").table("nation", "n")
            .join("ps.ps_suppkey", "s.s_suppkey")
            .join("s.s_nationkey", "n.n_nationkey")
            .where(Col("n.n_name") == Const("GERMANY"))
            .group("ps.ps_partkey")
            .agg("sum", Col("ps.ps_supplycost") * Col("ps.ps_availqty"), "value")
            .order("value", descending=True)
            .take(50)
            .build()
        )
    if name == "Q12":
        return (
            builder.table("orders", "o").table("lineitem", "l")
            .join("o.o_orderkey", "l.l_orderkey")
            .where(Col("l.l_shipdate") >= Const(730))
            .where(Col("l.l_shipdate") < Const(1095))
            .group("o.o_orderpriority")
            .agg("count", None, "line_count")
            .order("o.o_orderpriority")
            .build()
        )
    if name == "Q13":
        return (
            builder.table("customer", "c").table("orders", "o")
            .join("c.c_custkey", "o.o_custkey")
            .group("c.c_custkey")
            .agg("count", None, "c_count")
            .order("c_count", descending=True)
            .take(100)
            .build()
        )
    if name == "Q14":
        return (
            builder.table("lineitem", "l").table("part", "p")
            .join("l.l_partkey", "p.p_partkey")
            .where(Col("l.l_shipdate") >= Const(1000))
            .where(Col("l.l_shipdate") < Const(1030))
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "promo_revenue")
            .build()
        )
    if name == "Q15":
        return (
            builder.table("supplier", "s").table("lineitem", "l")
            .join("s.s_suppkey", "l.l_suppkey")
            .where(Col("l.l_shipdate") >= Const(1400))
            .where(Col("l.l_shipdate") < Const(1490))
            .group("s.s_suppkey", "s.s_name")
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "total_revenue")
            .order("total_revenue", descending=True)
            .take(1)
            .build()
        )
    if name == "Q16":
        return (
            builder.table("partsupp", "ps").table("part", "p").table("supplier", "s")
            .join("p.p_partkey", "ps.ps_partkey")
            .join("s.s_suppkey", "ps.ps_suppkey")
            .where(Col("p.p_brand") != Const("Brand#45"))
            .where(Col("p.p_size") >= Const(10))
            .group("p.p_brand", "p.p_type", "p.p_size")
            .agg("count", None, "supplier_cnt")
            .order("supplier_cnt", descending=True)
            .take(100)
            .build()
        )
    if name == "Q17":
        return (
            builder.table("lineitem", "l").table("part", "p")
            .join("p.p_partkey", "l.l_partkey")
            .where(Col("p.p_brand") == Const("Brand#23"))
            .where(Col("l.l_quantity") < Const(5.0))
            .agg("avg", Col("l.l_extendedprice"), "avg_yearly")
            .build()
        )
    if name == "Q18":
        return (
            builder.table("customer", "c").table("orders", "o").table("lineitem", "l")
            .join("c.c_custkey", "o.o_custkey")
            .join("o.o_orderkey", "l.l_orderkey")
            .where(Col("l.l_quantity") > Const(45.0))
            .group("c.c_name", "o.o_orderkey", "o.o_totalprice")
            .agg("sum", Col("l.l_quantity"), "total_qty")
            .order("o.o_totalprice", descending=True)
            .take(100)
            .build()
        )
    if name == "Q19":
        return (
            builder.table("lineitem", "l").table("part", "p")
            .join("p.p_partkey", "l.l_partkey")
            .where(Col("p.p_brand") == Const("Brand#12"))
            .where(Col("l.l_quantity") >= Const(1.0))
            .where(Col("l.l_quantity") <= Const(11.0))
            .agg("sum", Col("l.l_extendedprice") * (Const(1.0) - Col("l.l_discount")),
                 "revenue")
            .build()
        )
    if name == "Q20":
        return (
            builder.table("supplier", "s").table("nation", "n")
            .table("partsupp", "ps").table("part", "p").table("lineitem", "l")
            .join("s.s_suppkey", "ps.ps_suppkey")
            .join("ps.ps_partkey", "p.p_partkey")
            .join("l.l_partkey", "p.p_partkey")
            .join("s.s_nationkey", "n.n_nationkey")
            .where(Col("n.n_name") == Const("CANADA"))
            .where(Col("l.l_shipdate") >= Const(730))
            .where(Col("l.l_shipdate") < Const(1095))
            .group("s.s_name")
            .agg("sum", Col("ps.ps_availqty"), "avail")
            .order("s.s_name")
            .take(100)
            .build()
        )
    if name == "Q21":
        return (
            builder.table("supplier", "s").table("lineitem", "l")
            .table("orders", "o").table("nation", "n")
            .join("s.s_suppkey", "l.l_suppkey")
            .join("o.o_orderkey", "l.l_orderkey")
            .join("s.s_nationkey", "n.n_nationkey")
            .where(Col("n.n_name") == Const("SAUDI ARABIA"))
            .where(Col("o.o_orderstatus") == Const("F"))
            .group("s.s_name")
            .agg("count", None, "numwait")
            .order("numwait", descending=True)
            .take(100)
            .build()
        )
    if name == "Q22":
        return (
            builder.table("customer", "c").table("orders", "o")
            .join("c.c_custkey", "o.o_custkey")
            .where(Col("c.c_acctbal") > Const(0.0))
            .group("c.c_nationkey")
            .agg("count", None, "numcust")
            .agg("sum", Col("c.c_acctbal"), "totacctbal")
            .order("c.c_nationkey")
            .build()
        )
    raise WorkloadError(f"unknown TPC-H query {name!r}")


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
        logical=_build_logical(name),
    )


def tpch_queries(
    instance: TpchInstance | None = None,
    partitions: int | None = None,
) -> list[DSSQuery]:
    """All 22 TPC-H queries, ids 1..22, LineItem expanded to partitions."""
    if partitions is None:
        partitions = instance.partitions if instance is not None else 5
    return [
        tpch_query(name, query_id=index + 1, partitions=partitions)
        for index, name in enumerate(TPCH_FOOTPRINTS)
    ]
