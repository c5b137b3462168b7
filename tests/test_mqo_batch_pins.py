"""Golden pins: every batch workload in the tree schedules to the same answer.

``WorkloadScheduler.schedule`` runs fig9(a) at its five overlap rates,
fig9(b) at its seven sizes, EXT4's batch reference at its three
interarrivals and the batch row of ``BENCH_online.json``.  Each case
pins the realized dispatch order and the total IV as ``float.hex()``,
captured before batch MQO was re-expressed as a one-window online run —
so that change, and any later one, must reproduce them exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig9 import Fig9Config, build_mqo_scheduler
from repro.experiments.runner import reissue_stream
from repro.experiments.stream_mqo import StreamMqoConfig
from repro.mqo.ga import GAConfig
from repro.workload.arrival import poisson_arrivals
from repro.workload.generator import overlapping_workload, random_queries
from repro.workload.query import Workload

#: ``case -> (total IV hex, permutation)``.
GOLDEN_BATCH = {
    "fig9a-10": ("0x1.36d81fb1a2062p+1", [5, 7, 6, 1, 2, 12, 10, 3, 11, 8, 9, 4]),
    "fig9a-20": ("0x1.4410b294c921ep+1", [7, 5, 6, 1, 2, 12, 10, 3, 11, 8, 9, 4]),
    "fig9a-30": ("0x1.210a3a2a4d8a3p+1", [7, 5, 1, 6, 2, 12, 10, 3, 11, 8, 9, 4]),
    "fig9a-40": ("0x1.11a681f19a2e9p+1", [7, 5, 1, 2, 6, 12, 10, 3, 11, 8, 9, 4]),
    "fig9a-50": ("0x1.06eb347aac979p+1", [7, 5, 1, 2, 6, 12, 10, 3, 11, 8, 9, 4]),
    "fig9b-2": ("0x1.77a9c10790000p-2", [1, 2]),
    "fig9b-4": ("0x1.b112329bac21ep-2", [1, 3, 2, 4]),
    "fig9b-6": ("0x1.646a89df00e35p-1", [5, 1, 3, 2, 4, 6]),
    "fig9b-8": ("0x1.a7e6a01841ed9p-1", [7, 5, 1, 3, 6, 2, 4, 8]),
    "fig9b-10": ("0x1.66c63f5f8e1a8p+0", [10, 7, 1, 5, 9, 3, 2, 6, 4, 8]),
    "fig9b-12": (
        "0x1.4d094497e318dp+0", [10, 7, 5, 1, 9, 3, 2, 4, 11, 6, 12, 8],
    ),
    "fig9b-14": (
        "0x1.87758cc6a8840p+0",
        [7, 10, 1, 5, 13, 9, 3, 14, 2, 6, 4, 11, 8, 12],
    ),
    "ext4-0.5": (
        "0x1.d43f12460ba88p+0",
        [1, 10, 7, 20, 17, 19, 11, 15, 5, 9, 13, 12, 6, 3, 8, 14, 16, 18, 4, 2],
    ),
    "ext4-1.0": (
        "0x1.cd2b1d9a838adp+0",
        [5, 10, 7, 9, 20, 17, 15, 19, 11, 14, 6, 12, 3, 2, 13, 8, 1, 18, 16, 4],
    ),
    "ext4-2.0": (
        "0x1.1553b43bf85c0p+1",
        [1, 7, 10, 15, 17, 20, 19, 16, 11, 18, 14, 13, 9, 5, 12, 4, 8, 2, 3, 6],
    ),
    "bench-online": (
        "0x1.80df4848a3118p+0",
        [1, 5, 7, 13, 15, 9, 14, 10, 11, 16, 3, 2, 4, 8, 12, 6],
    ),
}


def batch_cases():
    """``{case: (scheduler, workload)}``, built the way each harness does."""
    config = Fig9Config()
    scheduler, setup = build_mqo_scheduler(config)
    cases = {}
    queries = random_queries(
        setup.instance, count=config.overlap_query_count,
        seed=config.workload_seed,
    )
    for rate in config.overlap_rates:
        burst = max(2, int(round(rate * len(queries))))
        cases[f"fig9a-{int(round(rate * 100))}"] = (
            scheduler,
            overlapping_workload(
                queries, rate, seed=config.overlap_seed, burst_size=burst
            ),
        )
    for count in config.query_counts:
        sized = random_queries(
            setup.instance, count=count, seed=config.workload_seed
        )
        cases[f"fig9b-{count}"] = (
            scheduler,
            overlapping_workload(
                sized, overlap_rate=1.0, seed=config.overlap_seed,
                burst_size=count,
            ),
        )
    ext4 = StreamMqoConfig()
    stream = reissue_stream(
        random_queries(
            setup.instance, count=ext4.query_count, seed=ext4.workload_seed
        ),
        rounds=ext4.rounds,
    )
    for interarrival in ext4.interarrivals:
        arrivals = poisson_arrivals(
            interarrival, len(stream), seed=ext4.arrival_seed
        )
        cases[f"ext4-{interarrival}"] = (
            scheduler, Workload.from_queries(stream, arrivals=arrivals),
        )
    # benchmarks/online_snapshot.py's batch row.
    bench, bench_setup = build_mqo_scheduler(
        Fig9Config(ga=GAConfig(generations=30))
    )
    stream = reissue_stream(
        random_queries(bench_setup.instance, count=8, seed=23), rounds=2
    )
    arrivals = poisson_arrivals(1.0, len(stream), seed=7)
    cases["bench-online"] = (
        bench, Workload.from_queries(stream, arrivals=arrivals),
    )
    return cases


@pytest.fixture(scope="module")
def cases():
    return batch_cases()


def test_every_batch_workload_is_pinned(cases):
    assert sorted(cases) == sorted(GOLDEN_BATCH)


@pytest.mark.parametrize("case", sorted(GOLDEN_BATCH))
def test_batch_schedule_is_bit_equal_to_its_pin(cases, case):
    scheduler, workload = cases[case]
    decision = scheduler.schedule(workload)
    total_iv, permutation = GOLDEN_BATCH[case]
    assert decision.permutation == permutation
    assert decision.total_information_value.hex() == total_iv
