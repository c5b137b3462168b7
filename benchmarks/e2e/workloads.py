"""The four workloads: shapes, sizes and why each is there.

Sizes are stated per second of run budget so that ``--seconds`` scales
a run and ``BENCHMARK.json``'s ``run_seconds`` fixes it.  A sim run is
cut into independent streams of a fixed length and the budget sets how
many there are: at ``run_seconds = 20`` that is 16 x 2,500 (``steady``),
18 x 480 (``burst``) and 20 x 1,200 (``pressure``) queries, about the
issue's calibration scaled by 0.8 (the driver's cap on total run time
forces it).  ``serve`` is bound by wall time, not work: it offers 12.5
requests per second for the whole budget.
"""

from __future__ import annotations

import random

#: ``ScheduleSpec`` keyword arguments per sim workload, the queries
#: generated per budget second and the length of one stream.
SIM_WORKLOADS = {
    # Provisioned Poisson stream; conflict groups are mostly singletons,
    # so plan enumeration, costing and compilation dominate.  Arrival
    # phases are continuous: a cache keyed on exact arrival shows nothing.
    "steady": {
        "per_second": 2000,
        "stream_queries": 2500,
        "spec": {
            "arrival": "poisson", "interarrival": 1.0, "max_pending": 32,
            "population_size": 4, "generations": 2,
        },
    },
    # Whole bursts conflict: 16-query groups scored through the numpy
    # batch evaluator, so the GA dominates.  Arrivals sit on a 0.05-min
    # lattice, so phases repeat every 6 bursts.
    "burst": {
        "per_second": 432,
        "stream_queries": 480,
        "spec": {
            "arrival": "burst", "interarrival": 25.0, "burst_size": 16,
            "max_pending": 64, "population_size": 24, "generations": 8,
            "vectorized": True,
        },
    },
    # Overload against a 16-slot queue: about one arrival in seven is
    # deferred and requeued, the pending set churns, and the scalar
    # evaluate_sequence path (prefix trie, choice memo) is hot.
    # interarrival is 0.38.  The committed 0.45 defers only 116 of 4,000
    # with two shards and does not exercise the defer path; at the issue's
    # 0.3 the backlog is a random walk that never recovers, and mean IV of
    # a 1,920-query stream ranged 0.23-0.41 over twelve arrival seeds
    # (work counters +-25 %), which no bound on a metric can hold.
    "pressure": {
        "per_second": 1200,
        "stream_queries": 1200,
        "spec": {
            "arrival": "poisson", "interarrival": 0.38, "max_pending": 16,
            "population_size": 4, "generations": 2,
        },
    },
}

#: ``ScaleConfig`` keyword arguments shared by the sim workloads.
#: ``executor`` is pinned to serial: process mode was no faster on two
#: cores and spread 1.8x, which measures the OS scheduler.
SCALE_CONFIG = {"executor": "serial", "shards": 2}

#: Size of the telemetry-on prefix each sim run is checked on.
CHECK_PREFIX_QUERIES = 2000

#: The live path.  12.5 req/s is about 10 % wall utilisation; the
#: workload deliberately stays far from saturation because congestion
#: collapse above ~20 req/s cannot be gated.
#: ``journal_fsync_every`` is effectively "never" (the journal is still
#: written, flushed to the page cache per record and verified): fsync on
#: the sandbox's shared disk moved from 0.3 to 5 ms median within minutes
#: and was 80 % of the admit latency, so the gated number followed the
#: host's disk.  Flushes a durable deployment would make are counted as
#: ``durable.journal_appends``.
SERVE_RATE = 12.5
SERVE_CONFIG = {
    "seconds_per_minute": 0.01, "window": 2.0, "max_pending": 16,
    "iv_floor": 0.0, "num_templates": 12, "seed": 11,
    "ga_generations": 10, "slo": True, "journal_fsync_every": 1_000_000,
}
#: At most this many requests in flight (one generator process).
SERVE_CONNECTIONS = 2
RESULT_TIMEOUT_SECONDS = 30.0
#: A run whose generator lateness p99 exceeds this is flagged noisy.
NOISY_LATE_MS = 25.0

WORKLOADS = (*SIM_WORKLOADS, "serve")


def sim_shape(name: str, seconds: float) -> tuple[int, int]:
    """``(streams, queries per stream)`` of a sim run for a run budget.

    A run schedules its streams back to back in one fresh interpreter and
    reports the median stream.  On the shared 2-core sandbox identical
    streams took 0.45-0.90 s within four minutes (slow phases lasting
    seconds to a minute); one long stream inherits all of that, the median
    of many short ones only the slow drift.  A budget too small for one
    full stream (``--smoke``) gets one shorter stream.
    """
    shape = SIM_WORKLOADS[name]
    total = shape["per_second"] * seconds
    length = shape["stream_queries"]
    if total >= length:
        return round(total / length), length
    burst = shape["spec"].get("burst_size", 1)
    return 1, max(1, round(total / burst)) * burst


def serve_requests(seconds: float) -> int:
    """Requests the open-loop generator sends in a run budget."""
    return max(2, round(SERVE_RATE * seconds))


def serve_templates(seed: int, count: int) -> list[int]:
    """The template index of each request, drawn from ``Random(seed)``.

    A seeded shuffle of a balanced multiset: every template is asked for
    equally often (to within one), only the order depends on the seed.
    Templates differ several-fold in business value and service time, so
    independent draws made ``mean_iv`` and ``cpu_ms_per_query`` swing with
    the mix (mean IV 0.11-0.155 over ten seeds) rather than with the code.
    """
    templates = [
        index % SERVE_CONFIG["num_templates"] for index in range(count)
    ]
    random.Random(seed).shuffle(templates)
    return templates
