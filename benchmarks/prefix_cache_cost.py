"""What the evaluator's prefix cache buys: cache on against off.

Runs two workloads with the default ``max_prefix_entries`` and with 0
(no prefix cache), alternating the two in one process round by round so
that host drift hits both alike, and prints the median and quartiles of
the per-round CPU seconds and the cyclic collector's generation-0 runs
(counted with ``gc.callbacks``):

* ``ga`` — the paper's GA budget: ``benchmarks/test_mqo_perf.py``'s
  16-query workload ordered by a 32 × 50 GA on a fresh evaluator;
* ``burst`` — one 480-query stream of the repo benchmark's ``burst``
  workload (``benchmarks/e2e/workloads.py``), averaged over streams 0–5
  of seed 1.

Best fitness and each stream's total IV are asserted equal with and
without the cache.  Usage::

    PYTHONPATH=src python benchmarks/prefix_cache_cost.py [--rounds 9]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE / "e2e")]

import workloads  # noqa: E402

from benchmarks import test_mqo_perf  # noqa: E402
from repro.experiments import scale  # noqa: E402
from repro.mqo.evaluator import WorkloadEvaluator  # noqa: E402

STREAMS = 6


def _ga() -> str:
    result = test_mqo_perf.run_ga(test_mqo_perf.build_evaluator())
    return result.best_fitness.hex()


def _burst() -> str:
    shape = workloads.SIM_WORKLOADS["burst"]
    spec = scale.ScheduleSpec(
        "burst", queries=shape["stream_queries"], **shape["spec"]
    )
    totals = []
    for stream in range(STREAMS):
        config = scale.ScaleConfig(
            seed=100 + stream, arrival_seed=100 + stream,
            **workloads.SCALE_CONFIG,
        )
        totals.append(scale.run_schedule(config, spec)["total_iv"]["online"])
    return " ".join(float(total).hex() for total in totals)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    rounds = parser.parse_args().rounds
    if rounds < 2:
        parser.error("--rounds must be at least 2 (quartiles need two)")
    defaults = WorkloadEvaluator.__init__.__defaults__
    cap_at = defaults.index(65_536)
    workloads_run = {"ga": (_ga, 1), "burst": (_burst, STREAMS)}
    seconds = {
        (name, mode): [] for name in workloads_run for mode in ("on", "off")
    }
    collections = dict.fromkeys(seconds, 0)
    outputs: dict[str, set[str]] = {name: set() for name in workloads_run}
    gen0 = [0]

    def count(phase: str, info: dict) -> None:
        gen0[0] += phase == "start" and info["generation"] == 0

    gc.callbacks.append(count)
    try:
        for round_index in range(rounds):
            modes = ("on", "off") if round_index % 2 == 0 else ("off", "on")
            for mode in modes:
                cap = 65_536 if mode == "on" else 0
                WorkloadEvaluator.__init__.__defaults__ = (
                    *defaults[:cap_at], cap, *defaults[cap_at + 1:]
                )
                for name, (run, per) in workloads_run.items():
                    started, before = time.process_time(), gen0[0]
                    outputs[name].add(run())
                    seconds[name, mode].append(
                        (time.process_time() - started) / per
                    )
                    collections[name, mode] += gen0[0] - before
    finally:
        WorkloadEvaluator.__init__.__defaults__ = defaults
        gc.callbacks.remove(count)
    for name, seen in outputs.items():
        assert len(seen) == 1, f"{name}: the cache changed a result"
    per_run = {name: per for name, (_run, per) in workloads_run.items()}
    for (name, mode), values in seconds.items():
        low, _median, high = statistics.quantiles(values, n=4)
        print(
            f"{name:5s} cache {mode:3s}: median "
            f"{statistics.median(values):.4f} s  IQR {low:.4f}-{high:.4f}"
            f"  (n={len(values)}), gen0 collections "
            f"{collections[name, mode] / (rounds * per_run[name]):.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
