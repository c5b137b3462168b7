"""The TPC-H row generator and the 22 engine definitions: the oracle
behind ``src/repro/data/tpch_calibration.json``.

The paper evaluates on "TPC-H benchmark data set: 6GB data and 22 queries"
and, for the synchronization experiments, "split[s] LineItem table into 5
partitions, therefore there are totally 12 tables".  :func:`generate_tpch`
builds that schema shape and the relative table sizes at a micro scale,
rows and all, as an engine :class:`~tests.engine.planner.Database`;
:func:`logical_query` is each report's simplified engine definition,
preserving the original's join shape and table set (TPC-H subqueries and
EXISTS blocks are flattened into joins or filters — the reproduction needs
relative costs and table footprints, not answer-for-answer compliance).
:mod:`tests.tpch_calibration` runs the engine's planner over both to
regenerate the committed calibration table.

Dates are integer day offsets from 1992-01-01 (0..2555); the literals below
mirror the spec's cut-offs (e.g. day 730 ≈ 1994-01-01).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.synthetic import SyntheticInstance
from repro.data.tpch import LINEITEM_PARTITIONS, lineitem_partition_names
from repro.errors import ConfigError
from repro.sim.rng import RandomSource
from tests.engine.expr import Col, Const
from tests.engine.planner import Database
from tests.engine.query import LogicalQuery, QueryBuilder
from tests.engine.schema import Column, DType, TableSchema
from tests.engine.table import Table
from tests.engine.views import UnionTable

#: TPC-H date domain in integer days.
DATE_MIN, DATE_MAX = 0, 2555

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
_TYPES = (
    "STANDARD ANODIZED TIN",
    "SMALL PLATED COPPER",
    "MEDIUM BURNISHED NICKEL",
    "LARGE BRUSHED STEEL",
    "ECONOMY POLISHED BRASS",
    "PROMO ANODIZED STEEL",
)
_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)


def _schema(name: str, *cols: tuple[str, str], pk: tuple[str, ...] = ()) -> TableSchema:
    return TableSchema(
        name,
        tuple(Column(cname, ctype) for cname, ctype in cols),
        primary_key=pk,
    )


_LINEITEM_COLUMNS = (
    ("l_orderkey", DType.INT),
    ("l_partkey", DType.INT),
    ("l_suppkey", DType.INT),
    ("l_linenumber", DType.INT),
    ("l_quantity", DType.FLOAT),
    ("l_extendedprice", DType.FLOAT),
    ("l_discount", DType.FLOAT),
    ("l_tax", DType.FLOAT),
    ("l_returnflag", DType.STR),
    ("l_linestatus", DType.STR),
    ("l_shipdate", DType.DATE),
)

#: The 8 logical TPC-H tables (lineitem listed once; partitions derive).
TPCH_SCHEMAS: dict[str, TableSchema] = {
    "region": _schema(
        "region",
        ("r_regionkey", DType.INT), ("r_name", DType.STR),
        pk=("r_regionkey",),
    ),
    "nation": _schema(
        "nation",
        ("n_nationkey", DType.INT), ("n_name", DType.STR),
        ("n_regionkey", DType.INT),
        pk=("n_nationkey",),
    ),
    "supplier": _schema(
        "supplier",
        ("s_suppkey", DType.INT), ("s_name", DType.STR),
        ("s_nationkey", DType.INT), ("s_acctbal", DType.FLOAT),
        pk=("s_suppkey",),
    ),
    "customer": _schema(
        "customer",
        ("c_custkey", DType.INT), ("c_name", DType.STR),
        ("c_nationkey", DType.INT), ("c_acctbal", DType.FLOAT),
        ("c_mktsegment", DType.STR),
        pk=("c_custkey",),
    ),
    "part": _schema(
        "part",
        ("p_partkey", DType.INT), ("p_name", DType.STR),
        ("p_brand", DType.STR), ("p_type", DType.STR),
        ("p_size", DType.INT), ("p_retailprice", DType.FLOAT),
        pk=("p_partkey",),
    ),
    "partsupp": _schema(
        "partsupp",
        ("ps_partkey", DType.INT), ("ps_suppkey", DType.INT),
        ("ps_availqty", DType.INT), ("ps_supplycost", DType.FLOAT),
        pk=("ps_partkey", "ps_suppkey"),
    ),
    "orders": _schema(
        "orders",
        ("o_orderkey", DType.INT), ("o_custkey", DType.INT),
        ("o_orderstatus", DType.STR), ("o_totalprice", DType.FLOAT),
        ("o_orderdate", DType.DATE), ("o_orderpriority", DType.STR),
        pk=("o_orderkey",),
    ),
    "lineitem": _schema("lineitem", *_LINEITEM_COLUMNS, pk=()),
}


@dataclass
class GeneratedTpch:
    """A generated TPC-H micro-instance, rows and all.

    Attributes
    ----------
    database:
        All tables, with LineItem stored only as its partitions.
    table_names:
        The 7 + ``partitions`` physical table names (the paper's "12 tables"
        for the default 5-way split).
    scale:
        The micro scale factor used.
    """

    database: Database
    table_names: list[str]
    scale: float
    partitions: int = LINEITEM_PARTITIONS
    row_counts: dict[str, int] = field(default_factory=dict)

    @property
    def lineitem_partitions(self) -> list[str]:
        """Names of the LineItem partitions."""
        return lineitem_partition_names(self.partitions)


def _row_counts(scale: float) -> dict[str, int]:
    """Scaled TPC-H row counts (floors keep tiny scales usable)."""
    return {
        "region": 5,
        "nation": 25,
        "supplier": max(10, int(10_000 * scale)),
        "customer": max(30, int(150_000 * scale)),
        "part": max(40, int(200_000 * scale)),
        "partsupp": max(80, int(800_000 * scale)),
        "orders": max(150, int(1_500_000 * scale)),
        "lineitem": max(600, int(6_000_000 * scale)),
    }


def generate_tpch(
    scale: float = 0.002,
    seed: int = 7,
    partitions: int = LINEITEM_PARTITIONS,
) -> GeneratedTpch:
    """Generate a deterministic TPC-H micro-instance.

    Parameters
    ----------
    scale:
        Fraction of the TPC-H SF1 row counts (0.002 → ~12k lineitem rows).
    seed:
        Root seed; identical seeds generate identical instances.
    partitions:
        How many LineItem partitions to create (the paper uses 5).
    """
    if scale <= 0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    if partitions < 1:
        raise ConfigError(f"partitions must be >= 1, got {partitions}")

    source = RandomSource(seed, "tpch")
    counts = _row_counts(scale)
    database = Database()

    region = Table(TPCH_SCHEMAS["region"])
    for key, name in enumerate(_REGIONS):
        region.insert((key, name))
    database.add(region)

    nation = Table(TPCH_SCHEMAS["nation"])
    for key, (name, regionkey) in enumerate(_NATIONS):
        nation.insert((key, name, regionkey))
    database.add(nation)

    rng = source.spawn("supplier")
    supplier = Table(TPCH_SCHEMAS["supplier"])
    for key in range(counts["supplier"]):
        supplier.insert((
            key,
            f"Supplier#{key:06d}",
            rng.randint(0, len(_NATIONS) - 1),
            round(rng.uniform(-999.0, 9999.0), 2),
        ))
    database.add(supplier)

    rng = source.spawn("customer")
    customer = Table(TPCH_SCHEMAS["customer"])
    for key in range(counts["customer"]):
        customer.insert((
            key,
            f"Customer#{key:06d}",
            rng.randint(0, len(_NATIONS) - 1),
            round(rng.uniform(-999.0, 9999.0), 2),
            rng.choice(_SEGMENTS),
        ))
    database.add(customer)

    rng = source.spawn("part")
    part = Table(TPCH_SCHEMAS["part"])
    for key in range(counts["part"]):
        part.insert((
            key,
            f"Part#{key:06d}",
            rng.choice(_BRANDS),
            rng.choice(_TYPES),
            rng.randint(1, 50),
            round(900.0 + (key % 1000) + rng.uniform(0, 100.0), 2),
        ))
    database.add(part)

    rng = source.spawn("partsupp")
    partsupp = Table(TPCH_SCHEMAS["partsupp"])
    per_part = max(1, counts["partsupp"] // max(counts["part"], 1))
    for partkey in range(counts["part"]):
        for i in range(per_part):
            partsupp.insert((
                partkey,
                (partkey + i * 7) % counts["supplier"],
                rng.randint(1, 9999),
                round(rng.uniform(1.0, 1000.0), 2),
            ))
    database.add(partsupp)

    rng = source.spawn("orders")
    orders = Table(TPCH_SCHEMAS["orders"])
    for key in range(counts["orders"]):
        orders.insert((
            key,
            rng.randint(0, counts["customer"] - 1),
            rng.choice(("O", "F", "P")),
            round(rng.uniform(850.0, 500_000.0), 2),
            rng.randint(DATE_MIN, DATE_MAX),
            rng.choice(_PRIORITIES),
        ))
    database.add(orders)

    rng = source.spawn("lineitem")
    partition_tables = [
        Table(TPCH_SCHEMAS["lineitem"].rename(name))
        for name in lineitem_partition_names(partitions)
    ]
    lines_per_order = max(1, counts["lineitem"] // max(counts["orders"], 1))
    for orderkey in range(counts["orders"]):
        for line in range(rng.randint(1, 2 * lines_per_order - 1)):
            quantity = float(rng.randint(1, 50))
            price = round(quantity * rng.uniform(900.0, 2000.0), 2)
            row = (
                orderkey,
                rng.randint(0, counts["part"] - 1),
                rng.randint(0, counts["supplier"] - 1),
                line + 1,
                quantity,
                price,
                round(rng.uniform(0.0, 0.10), 2),
                round(rng.uniform(0.0, 0.08), 2),
                rng.choice(("A", "N", "R")),
                rng.choice(("O", "F")),
                rng.randint(DATE_MIN, DATE_MAX),
            )
            # Hash-partition by order key so joins stay partition-local-ish.
            partition_tables[orderkey % partitions].insert(row)
    for table in partition_tables:
        database.add(table)

    # A combined logical "lineitem" is registered as a union-all view over
    # the partitions (no row copies) so engine-level query definitions can
    # reference it directly; the DSS layer always works with the physical
    # partitions.
    database.add(UnionTable(TPCH_SCHEMAS["lineitem"], partition_tables))

    table_names = [
        "region", "nation", "supplier", "customer",
        "part", "partsupp", "orders",
    ] + lineitem_partition_names(partitions)
    row_counts = {name: database.table(name).row_count for name in table_names}
    return GeneratedTpch(
        database=database,
        table_names=table_names,
        scale=scale,
        partitions=partitions,
        row_counts=row_counts,
    )


def logical_query(name: str) -> LogicalQuery:
    """The simplified engine definition of one TPC-H query."""
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


def synthetic_database(
    instance: SyntheticInstance, seed: int | None = None
) -> Database:
    """A synthetic instance's tables as an engine database.

    With ``seed`` — the one :func:`~repro.data.synthetic.generate_synthetic`
    was called with — every table is filled with its drawn row count of
    random rows; without, the tables are empty.
    """
    source = None if seed is None else RandomSource(seed, "synthetic")
    database = Database()
    for name in instance.table_names:
        columns = tuple(Column(*spec) for spec in instance.columns[name])
        table = Table(TableSchema(name, columns, (instance.key_column(name),)))
        if source is not None:
            filler = source.spawn(f"rows/{name}")
            fk = instance.foreign_keys.get(name)
            top = instance.row_counts[fk[0]] - 1 if fk else 0
            for key in range(instance.row_counts[name]):
                record: list = [key]
                if fk is not None:
                    record.append(filler.randint(0, top))
                for column in columns[len(record):]:
                    record.append(_random_value(column.dtype, filler))
                table.insert(record, validate=False)
        database.add(table)
    return database


def _random_value(dtype: str, rng: RandomSource):
    if dtype == "int":
        return rng.randint(0, 10_000)
    if dtype == "float":
        return round(rng.uniform(0.0, 10_000.0), 3)
    if dtype == "date":
        return rng.randint(0, 2555)
    return f"v{rng.randint(0, 9999):04d}"
