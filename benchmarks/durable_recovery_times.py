"""Journal size and recovery time of a journaled serve-scheduler run.

Behind the recovery-times table in EXPERIMENTS.md ("Crash/resume
durability").  For 8, 32 and 64 queries — the serve scheduler's
templates (``build_serve_scheduler(ServeConfig())``) cycled, one arrival
every 0.5 stream minutes — it journals a run with a snapshot every 10
pops, then times :func:`~repro.durable.recover` from scratch and through
the last snapshot, each with a fresh scheduler.  Prints one row per
size: queries, pops, journal KiB, scratch ms, snapshot + tail ms.

Usage::

    PYTHONPATH=src python benchmarks/durable_recovery_times.py
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.durable import journaled_run, recover
from repro.serve.service import ServeConfig, build_serve_scheduler
from repro.workload.query import Workload


def main() -> None:
    templates = build_serve_scheduler(ServeConfig())[1]
    with tempfile.TemporaryDirectory() as scratch:
        for count in (8, 32, 64):
            workload = Workload()
            for qid in range(count):
                template = templates[qid % len(templates)]
                workload.add(replace(template, query_id=qid), arrival=0.5 * qid)
            path = Path(scratch) / f"run{count}.journal"
            run = journaled_run(
                build_serve_scheduler(ServeConfig())[0], workload, path,
                snapshot_every=10,
            )
            millis = []
            for use_snapshot in (False, True):
                scheduler = build_serve_scheduler(ServeConfig())[0]
                start = time.perf_counter()
                recover(path, scheduler, use_snapshot=use_snapshot)
                millis.append((time.perf_counter() - start) * 1000.0)
            print(
                f"{count:3d} queries  {run.pops:4d} pops  "
                f"{path.stat().st_size / 1024:7.0f} KiB  "
                f"scratch {millis[0]:7.0f} ms  snapshot+tail {millis[1]:5.0f} ms"
            )


if __name__ == "__main__":
    main()
