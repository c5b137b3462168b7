"""DSS queries, workloads, TPC-H query set, and random workload generators."""

from repro import _lazy_exports

_EXPORTS = {
    "ArrivalProcess": "arrival",
    "DSSQuery": "query",
    "POLICIES": "business",
    "assign_business_values": "business",
    "TPCH_FOOTPRINTS": "tpch",
    "WORK_PER_ROW": "generator",
    "Workload": "query",
    "load_workload": "serialize",
    "overlapping_workload": "generator",
    "poisson_arrivals": "arrival",
    "random_queries": "generator",
    "save_workload": "serialize",
    "tpch_queries": "tpch",
    "tpch_query": "tpch",
    "workload_from_dict": "serialize",
    "workload_to_dict": "serialize",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
