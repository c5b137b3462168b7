"""DSS queries, workloads, TPC-H query set, and random workload generators."""

from repro import _lazy_exports

# Eager: the submodule of the same name would otherwise shadow the
# function once anything imports ``repro.workload.tpch_queries``.
from repro.workload.tpch_queries import tpch_queries

_EXPORTS = {
    "ArrivalProcess": "arrival",
    "DSSQuery": "query",
    "POLICIES": "business",
    "assign_business_values": "business",
    "TPCH_FOOTPRINTS": "tpch_queries",
    "WORK_PER_ROW": "generator",
    "Workload": "query",
    "load_workload": "serialize",
    "overlapping_workload": "generator",
    "poisson_arrivals": "arrival",
    "random_queries": "generator",
    "save_workload": "serialize",
    "tpch_query": "tpch_queries",
    "workload_from_dict": "serialize",
    "workload_to_dict": "serialize",
}
__all__ = [*_EXPORTS, "tpch_queries"]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
