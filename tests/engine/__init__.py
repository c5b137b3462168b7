"""Mini relational engine: the TPC-H calibration tool.

A small but real query processor — schemas, in-memory tables, expression
trees, hash joins, aggregation, a statistics-driven greedy planner.  Its
planner's work estimates over generated TPC-H rows are the committed
calibration the runtime reads (``src/repro/data/tpch_calibration.json``),
compiled in advance as the paper's Section 3.1 says the step can be; see
``tests/tpch_calibration.py``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AggSpec": "ops",
    "Aggregate": "ops",
    "And": "expr",
    "AntiJoin": "ops",
    "Arith": "expr",
    "Col": "expr",
    "Column": "schema",
    "ColumnStats": "stats",
    "Compare": "expr",
    "Const": "expr",
    "CostEstimate": "planner",
    "Database": "planner",
    "Distinct": "ops",
    "DType": "schema",
    "ExecutionStats": "ops",
    "Expr": "expr",
    "Filter": "ops",
    "HashJoin": "ops",
    "Limit": "ops",
    "LogicalQuery": "query",
    "Not": "expr",
    "Operator": "ops",
    "Or": "expr",
    "PhysicalPlan": "planner",
    "Planner": "planner",
    "Project": "ops",
    "QueryBuilder": "query",
    "Scan": "ops",
    "Schema": "schema",
    "SemiJoin": "ops",
    "Sort": "ops",
    "Table": "table",
    "TableSchema": "schema",
    "TableStats": "stats",
    "UnionTable": "views",
    "estimate_selectivity": "stats",
    "join_selectivity": "stats",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
