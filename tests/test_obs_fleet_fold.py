"""The fleet registry is the fold of the merged fleet trace.

Shards ship records, never registry state, so there is no merge to
approximate: :attr:`FleetCollector.registry` must equal one
:class:`LiveRegistry` fed every shard's records, untagged, in global time
order (ties by shard index, then emit order) — leaf for leaf, floats
included.  Its counters and histogram buckets must also be the sums of
the per-shard folds, the additive half of what a merge used to promise,
and where the fleet adds up (in-flight queries, per-table sync counts),
so does the fold.

The traces are this file's own: random multi-shard streams that mix every
event kind the registry folds (lifecycle, ledger, sync, faults, admission,
alerts), with timestamps on a coarse grid so that records of different
shards tie.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.value import DiscountRates
from repro.obs import events
from repro.obs.fleet import FleetCollector
from repro.obs.ledger import completion_ledger
from repro.obs.live import LiveRegistry
from repro.sim.trace import TraceRecord

from tests.test_obs_fleet import audited

_RATES = DiscountRates(0.05, 0.02)
_TABLES = ("t0", "t1", "t2")
_SITES = ("s0", "s1")


def _tick(rng: random.Random, now: float) -> float:
    return now + rng.choice((0.0, 0.5, 0.5, 1.0, 2.5))


def shard_stream(rng: random.Random, shard: int, shards: int, queries: int):
    """One shard's time-ordered records (untagged), owning qids ``shard``,
    ``shard + shards``, ..."""
    timed: list[tuple[float, int, TraceRecord]] = []

    def emit(time, kind, subject, **detail):
        timed.append((time, len(timed), TraceRecord(time, kind, subject, detail)))

    now = 0.0
    down: set[str] = set()
    for index in range(queries):
        now = _tick(rng, now)
        qid = shard + index * shards
        name = f"q{qid}"
        roll = rng.random()
        if roll < 0.15:
            emit(now, events.MQO_SHED, name, qid=qid)
            continue
        emit(now, events.MQO_ADMIT, name, qid=qid, requeued=rng.random() < 0.3)
        emit(now, events.SUBMIT, name, qid=qid)
        if rng.random() < 0.7:
            emit(now, events.PLAN, name, qid=qid, est_iv=rng.uniform(0.2, 1.0))
        done = now + rng.choice((0.5, 1.0, 3.0, 7.5))
        if roll < 0.25:
            emit(done, events.FAILED, name, qid=qid)
        elif roll < 0.95:  # the rest stay in flight
            ledger = completion_ledger(
                name, qid, business_value=rng.uniform(0.5, 2.0), rates=_RATES,
                submitted_at=now, begin=now, completed_at=done,
                data_timestamp=now - rng.uniform(0.0, 4.0),
            ).to_dict()
            emit(done, events.COMPLETE, name, qid=qid, iv=ledger["reported_iv"])
            emit(done, events.LEDGER, name, **ledger)
        if rng.random() < 0.3:
            emit(now, events.MQO_WINDOW, "window", index=index)
        if rng.random() < 0.3:
            table = rng.choice(_TABLES)
            kind = rng.choice(
                (events.SYNC_APPLY, events.SYNC_APPLY, events.SYNC_SKIP,
                 events.SYNC_DELAY)
            )
            if kind == events.SYNC_APPLY:
                emit(now, kind, table, at=now, gap=rng.uniform(0.0, 6.0))
            else:
                emit(now, kind, table, scheduled=now + rng.uniform(0.0, 2.0))
        if rng.random() < 0.1:
            site = rng.choice(_SITES)
            if site in down:
                down.discard(site)
                emit(now, events.FAULT_UP, site)
            else:
                down.add(site)
                emit(now, events.FAULT_DOWN, site)
        if rng.random() < 0.05:
            emit(now, rng.choice((events.ALERT_OPEN, events.ALERT_CLOSE)),
                 "query.cl.p95", value=1.0)
    return [record for _, _, record in sorted(timed, key=lambda t: t[:2])]


def random_fleet(seed: int, shards: int, queries: int) -> list[list[TraceRecord]]:
    rng = random.Random(seed)
    return [
        shard_stream(rng, shard, shards, rng.randint(0, queries))
        for shard in range(shards)
    ]


fleets = st.builds(
    random_fleet,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.integers(min_value=1, max_value=4),
    queries=st.integers(min_value=0, max_value=25),
)
PROPERTY = settings(max_examples=40, deadline=None)


def collect(streams) -> FleetCollector:
    return FleetCollector([
        audited(shard, list(stream)) for shard, stream in enumerate(streams)
    ])


def fold(records) -> LiveRegistry:
    registry = LiveRegistry()
    for record in records:
        registry.observe(record)
    return registry


def union_fold(streams) -> LiveRegistry:
    """The reference: the untagged streams merged by a plain stable sort
    (time, then shard, then emit order), independent of ``heapq``."""
    return fold(
        record
        for _, _, _, record in sorted(
            (record.time, shard, position, record)
            for shard, stream in enumerate(streams)
            for position, record in enumerate(stream)
        )
    )


def ledger_values(streams, field) -> list[float]:
    return [
        record.detail[field]
        for stream in streams
        for record in stream
        if record.kind == events.LEDGER
    ]


@PROPERTY
@given(streams=fleets)
def test_fleet_registry_is_the_fold_of_the_merged_trace(streams):
    details = [[dict(record.detail) for record in stream] for stream in streams]
    collector = collect(streams)
    fleet = collector.registry.snapshot()
    assert fleet == union_fold(streams).snapshot()
    assert "ledger.malformed" not in fleet["counters"]
    # Reading the registry leaves the shards' records as emitted.
    assert [
        [record.detail for record in telemetry.records]
        for telemetry in collector.shards
    ] == details


@PROPERTY
@given(streams=fleets)
def test_counters_are_the_sums_of_the_shard_folds(streams):
    fleet = collect(streams).registry.counters
    parts = [fold(stream).counters for stream in streams]
    names = {name for part in parts for name in part}
    assert fleet == {
        name: sum(part.get(name, 0.0) for part in parts) for name in names
    }


@PROPERTY
@given(streams=fleets)
def test_histogram_buckets_are_the_sums_of_the_shard_folds(streams):
    fleet = collect(streams).registry.snapshot()["histograms"]
    parts = [fold(stream).snapshot()["histograms"] for stream in streams]
    for name, data in fleet.items():
        shares = [part[name] for part in parts]
        assert data["counts"] == [
            sum(counts) for counts in zip(*(share["counts"] for share in shares))
        ], name
        assert data["count"] == sum(share["count"] for share in shares), name
        seen = [share for share in shares if share["count"]]
        assert data["min"] == (min(s["min"] for s in seen) if seen else None)
        assert data["max"] == (max(s["max"] for s in seen) if seen else None)


@PROPERTY
@given(streams=fleets, idle=st.sampled_from([0.0, 0.5, 4.0, 25.0]))
def test_rates_and_windows_decay_like_the_union_fold(streams, idle):
    # Past the last record, the EWMAs decay and the windows empty out on
    # the same clock as the union fold's.
    fleet = collect(streams).registry
    union = union_fold(streams)
    later = union.now + idle
    assert fleet.snapshot(later)["rates"] == union.snapshot(later)["rates"]
    assert fleet.shed_ratio(later) == union.shed_ratio(later)


@PROPERTY
@given(streams=fleets)
def test_quantiles_are_the_union_streams(streams):
    # No pooled-marker approximation is left: every sketch has seen every
    # ledger entry of every shard, and reads what the union fold reads.
    fleet = collect(streams).registry
    union = union_fold(streams)
    ivs = ledger_values(streams, "reported_iv")
    assert fleet.iv_p50.count == fleet.cl_p95.count == len(ivs)
    if ivs:
        assert min(ivs) <= fleet.iv_p50.value() <= max(ivs)
    assert fleet.snapshot()["quantiles"] == union.snapshot()["quantiles"]


@PROPERTY
@given(streams=fleets)
def test_in_flight_adds_across_shards(streams):
    # Shards own disjoint queries, so the fleet's open queries are the
    # sum of each shard's.
    assert collect(streams).registry.in_flight == sum(
        fold(stream).in_flight for stream in streams
    )


@PROPERTY
@given(streams=fleets)
def test_per_table_sync_counts_are_the_sums_of_the_shard_folds(streams):
    fleet = collect(streams).registry.snapshot()["tables"]
    parts = [fold(stream).snapshot()["tables"] for stream in streams]
    assert set(fleet) == {table for part in parts for table in part}
    for table, gauges in fleet.items():
        assert gauges["sync.table.syncs"] == sum(
            part[table]["sync.table.syncs"] for part in parts if table in part
        ), table
