"""Regenerate, or check, the committed TPC-H calibration table.

The runtime reads each TPC-H instance's row counts, row widths and the 22
reports' work units from ``src/repro/data/tpch_calibration.json``.  This
tool computes them the way the runtime once did on every setup: generate
the instance's rows (:func:`tests.tpch_oracle.generate_tpch`) and ask the
mini engine's planner to estimate each report (:func:`logical_query`).

Run from the repository root::

    PYTHONPATH=src python -m tests.tpch_calibration           # rewrite
    PYTHONPATH=src python -m tests.tpch_calibration --check   # exit 1 on drift

``make calibrate`` runs the first and ``make ci`` the second; tier-1
compares the table hex for hex in ``tests/test_tpch_calibration.py``.  To
calibrate another ``(scale, seed)``, add it to :data:`CALIBRATED` and run
``make calibrate``.
"""

from __future__ import annotations

import json
import sys

from repro.data.tpch import CALIBRATION_PATH, LINEITEM_PARTITIONS
from repro.workload.tpch import TPCH_FOOTPRINTS
from tests.engine.planner import Planner
from tests.tpch_oracle import generate_tpch, logical_query

#: Every ``(scale, seed)`` a default, a committed result or a test builds.
CALIBRATED: tuple[tuple[float, int], ...] = (
    (0.0005, 7),
    (0.001, 3),
    (0.001, 7),
    (0.001, 11),
    (0.002, 7),
)


def calibrate(scale: float, seed: int) -> tuple[dict, dict[str, int]]:
    """``(table entry, row widths)`` of one instance, from its rows."""
    generated = generate_tpch(scale=scale, seed=seed)
    database = generated.database
    planner = Planner(database)
    entry = {
        "scale": scale,
        "seed": seed,
        "row_counts": generated.row_counts,
        "work_units": {
            name: planner.estimate(logical_query(name)).work_units.hex()
            for name in TPCH_FOOTPRINTS
        },
    }
    widths = {
        name: database.table(name).schema.row_width_bytes
        for name in generated.table_names
    }
    return entry, widths


def calibration_table() -> str:
    """The table's JSON text for every pair in :data:`CALIBRATED`."""
    instances = []
    row_bytes: dict[str, int] = {}
    for scale, seed in CALIBRATED:
        entry, widths = calibrate(scale, seed)
        instances.append(entry)
        row_bytes.update(widths)
    table = {
        "regenerate": "make calibrate",
        "partitions": LINEITEM_PARTITIONS,
        "row_bytes": row_bytes,
        "instances": instances,
    }
    return json.dumps(table, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    text = calibration_table()
    if args == ["--check"]:
        if CALIBRATION_PATH.read_text(encoding="utf-8") != text:
            print(f"{CALIBRATION_PATH} is stale: run `make calibrate`")
            return 1
        print(f"{CALIBRATION_PATH}: {len(CALIBRATED)} instances up to date")
        return 0
    if args:
        print(__doc__)
        return 2
    CALIBRATION_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {CALIBRATION_PATH} ({len(CALIBRATED)} instances)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
