"""TPC-H micro-instances, read from a committed calibration table.

The paper evaluates on "TPC-H benchmark data set: 6GB data and 22 queries"
and, for the synchronization experiments, "split[s] LineItem table into 5
partitions, therefore there are totally 12 tables".  What the simulation
needs of such an instance is each table's row count and row width and each
query's work units — the number Section 3.1 says is compiled "only once and
... in advance".  So the runtime builds no rows: ``tpch_calibration.json``
holds those numbers per ``(scale, seed)``, work units as ``float.hex``.
The test-side mini engine (``tests/tpch_calibration.py``) computes them
from generated rows; ``make calibrate`` rewrites the table and tier-1
checks it hex for hex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError

__all__ = [
    "LINEITEM_PARTITIONS",
    "TpchInstance",
    "lineitem_partition_names",
    "tpch_instance",
]

#: Number of LineItem partitions used by the paper's Section 4.2 setup.
LINEITEM_PARTITIONS = 5

#: The committed table; ``make calibrate`` regenerates it.
CALIBRATION_PATH = Path(__file__).with_name("tpch_calibration.json")


def lineitem_partition_names(partitions: int = LINEITEM_PARTITIONS) -> list[str]:
    """Names of the LineItem partitions (``lineitem_p1`` .. ``lineitem_pK``)."""
    return [f"lineitem_p{i + 1}" for i in range(partitions)]


@dataclass(frozen=True)
class TpchInstance:
    """One calibrated TPC-H micro-instance.

    Attributes
    ----------
    table_names:
        The 7 + ``partitions`` physical table names (the paper's "12
        tables"), in placement order.
    row_counts, row_bytes:
        Rows and bytes per row of each physical table.
    work_units:
        ``"Q1"`` .. ``"Q22"`` → the mini engine planner's work estimate.
    """

    scale: float
    seed: int
    table_names: tuple[str, ...]
    row_counts: dict[str, int]
    row_bytes: dict[str, int]
    work_units: dict[str, float]
    partitions: int = LINEITEM_PARTITIONS


def tpch_instance(scale: float = 0.002, seed: int = 7) -> TpchInstance:
    """The calibrated instance for ``(scale, seed)``.

    Raises :class:`ConfigError` for a pair the table does not list: there
    is no estimate to fall back on that would cost queries the same way.
    """
    table = json.loads(CALIBRATION_PATH.read_text(encoding="utf-8"))
    for entry in table["instances"]:
        if entry["scale"] == scale and entry["seed"] == seed:
            rows = entry["row_counts"]
            return TpchInstance(
                scale=scale,
                seed=seed,
                table_names=tuple(rows),
                row_counts=rows,
                row_bytes={name: table["row_bytes"][name] for name in rows},
                work_units={
                    name: float.fromhex(work)
                    for name, work in entry["work_units"].items()
                },
                partitions=table["partitions"],
            )
    raise ConfigError(
        f"no TPC-H calibration for scale={scale!r}, seed={seed!r}: add the "
        f"pair to CALIBRATED in tests/tpch_calibration.py and run "
        f"`make calibrate`"
    )
