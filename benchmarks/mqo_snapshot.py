"""Write ``BENCH_mqo.json`` — a point-in-time MQO fast-path snapshot.

Runs the same 16-query / 50-generation GA workload as
``benchmarks/test_mqo_perf.py`` once through the fast path and once
naively, and records wall times plus the evaluator/GA counters.  Invoked
by ``make bench-mqo``; the JSON gives perf regressions a baseline to
diff against.

Usage::

    PYTHONPATH=src python benchmarks/mqo_snapshot.py [output.json]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# The benchmark directory for ``test_mqo_perf``, the repo root for the
# naive oracle it imports from ``tests``.
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_mqo_perf import build_evaluator, run_ga  # noqa: E402


def snapshot() -> dict:
    fast_eval = build_evaluator()
    started = time.perf_counter()
    fast_result = run_ga(fast_eval)
    fast_wall = time.perf_counter() - started

    naive_eval = build_evaluator()
    started = time.perf_counter()
    naive_result = run_ga(naive_eval, naive=True)
    naive_wall = time.perf_counter() - started

    assert fast_result.best == naive_result.best
    assert fast_result.best_fitness == naive_result.best_fitness

    stats = fast_eval.stats
    return {
        "workload": {"queries": 16, "generations": 50, "population": 32},
        "fast": {
            "wall_seconds": round(fast_wall, 4),
            "fitness_calls": fast_result.fitness_calls,
            "cache_hits": fast_result.cache_hits,
            "best_fitness": fast_result.best_fitness,
            "realize_calls": stats.realize_calls,
            "naive_realize_calls": stats.naive_realize_calls,
            "realize_reduction_factor": round(
                stats.realize_reduction_factor, 2
            ),
            "candidates_pruned": stats.candidates_pruned,
        },
        "naive": {
            "wall_seconds": round(naive_wall, 4),
            "fitness_calls": naive_result.fitness_calls,
            "cache_hits": naive_result.cache_hits,
            "best_fitness": naive_result.best_fitness,
        },
        "speedup": round(naive_wall / fast_wall, 2) if fast_wall else None,
    }


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCH_mqo.json")
    data = snapshot()
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")
    print(json.dumps(data, indent=2))


if __name__ == "__main__":
    main()
