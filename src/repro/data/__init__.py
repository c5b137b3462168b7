"""Data sets: calibrated TPC-H micro-instances, synthetic schemas, placements."""

from repro import _lazy_exports

_EXPORTS = {
    "LINEITEM_PARTITIONS": "tpch",
    "SyntheticInstance": "synthetic",
    "TpchInstance": "tpch",
    "generate_synthetic": "synthetic",
    "lineitem_partition_names": "tpch",
    "round_robin_placement": "placement",
    "skewed_placement": "placement",
    "tpch_instance": "tpch",
    "uniform_placement": "placement",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
