"""Tests-only oracle for the metrics fold: a drained system's numbers,
counted without its trace.

``FederatedSystem.metrics()`` folds the system's trace through
:class:`~repro.obs.live.LiveRegistry`.  :func:`registry_from_system`
counts the same quantities from the other side — the executor's
``outcomes`` and the replication manager's integer sync counters — so a
property test can check that the fold of the trace and the run it traced
agree.  It returns exactly the eight counters and three histograms that
both sides hold.
"""

from __future__ import annotations

from repro.obs.live import IV_BUCKETS
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram


def registry_from_system(system) -> dict:
    """``{"counters", "histograms"}`` of a drained system, trace unread."""
    outcomes = system.outcomes
    replication = system.replication
    counters = {
        "query.completed": len(outcomes),
        "query.failed": sum(1 for o in outcomes if o.failed),
        "query.degraded": sum(1 for o in outcomes if o.degraded),
        "query.retries": sum(o.retries for o in outcomes),
        "query.failovers": sum(o.failovers for o in outcomes),
        "sync.total": replication.total_syncs,
        "sync.skipped": replication.syncs_skipped,
        "sync.delayed": replication.syncs_delayed,
    }
    histograms = {
        "query.iv.hist": Histogram("query.iv.hist", bounds=IV_BUCKETS),
        "query.cl.hist": Histogram("query.cl.hist", bounds=DEFAULT_BUCKETS),
        "query.sl.hist": Histogram("query.sl.hist", bounds=DEFAULT_BUCKETS),
    }
    for outcome in outcomes:
        histograms["query.iv.hist"].observe(outcome.information_value)
        histograms["query.cl.hist"].observe(outcome.computational_latency)
        histograms["query.sl.hist"].observe(outcome.synchronization_latency)
    return {
        "counters": {name: float(value) for name, value in counters.items()},
        "histograms": {
            name: histogram.snapshot() for name, histogram in histograms.items()
        },
    }
