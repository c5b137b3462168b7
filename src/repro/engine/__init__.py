"""Mini relational engine.

A small but real query processor — schemas, in-memory tables, expression
trees, hash joins, aggregation, a statistics-driven greedy planner — used to
(1) execute the example reports and (2) calibrate the federation cost model
from actual row counts, as the paper's Section 3.1 "compile the query ...
in advance" step assumes.
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
