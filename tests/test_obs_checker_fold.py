"""The checker fold reports what the batch oracle reports.

:class:`~repro.obs.checker.TraceChecker` judges a trace one record at a
time; ``tests/checker_oracle.py`` is the batch checker it replaced, which
groups the whole trace by query before judging it.  Their violations,
sorted, must be equal on

* the traces of the ``trace`` CLI scenarios (``fig4`` is the golden
  trace; ``fig4``, ``stream`` and ``faults`` are ``make trace-check``'s;
  ``faults`` and ``stream-online`` carry outages, retries, failovers,
  admission and windows), pristine and with each record deleted,
  duplicated or swapped with its neighbour;
* small traced runs drawn by Hypothesis (``federations`` from
  ``test_obs_properties.py``: random layouts, replication choices, sync
  cadences and rates; its fault-plan variant draws traces of up to 19k
  records, too slow for tier-1), each perturbed by deleting, duplicating
  or swapping adjacent records, or by tampering one ledger field.  A
  tampered discount rate of 1 or more makes both raise ``ConfigError``
  while parsing the ledger, rather than report it; the two must agree
  on that too.

A fold attached to a tracer must also end where a fold over the tracer's
records ends.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.experiments.trace_scenarios import TRACE_SCENARIOS
from repro.obs import TraceChecker, events
from repro.sim.trace import TraceRecord, Tracer

from tests.checker_oracle import TraceChecker as OracleChecker
from tests.checker_oracle import sorted_violations
from tests.test_obs_properties import federations, run


def verdict(checker, records):
    """Sorted violations, or the type of the error the checker raised."""
    try:
        return sorted_violations(checker.check(records))
    except ReproError as error:
        return type(error)


def assert_fold_equals_oracle(records, **options) -> None:
    assert verdict(TraceChecker(**options), records) == verdict(
        OracleChecker(**options), records
    )


def deleted(records, index):
    return records[:index] + records[index + 1:]


def duplicated(records, index):
    return records[:index + 1] + records[index:]


def swapped(records, index):
    index = min(index, len(records) - 2)
    return (
        records[:index] + [records[index + 1], records[index]]
        + records[index + 2:]
    )


def tampered(records, index, field, delta):
    """``records`` with one field of the ``index``-th ledger changed: a
    number moved by ``delta`` (``query_id`` by one), a flag flipped."""
    ledgers = [
        position for position, record in enumerate(records)
        if record.kind == events.LEDGER
    ]
    position = ledgers[index % len(ledgers)]
    record = records[position]
    names = sorted(
        name for name, value in record.detail.items()
        if isinstance(value, (int, float))
    )
    name = names[field % len(names)]
    value = record.detail[name]
    if isinstance(value, bool):
        value = not value
    elif isinstance(value, int):
        value += 1
    else:
        value += delta
    return (
        records[:position]
        + [TraceRecord(
            record.time, record.kind, record.subject,
            {**record.detail, name: value},
        )]
        + records[position + 1:]
    )


@pytest.fixture(scope="module", params=sorted(TRACE_SCENARIOS))
def scenario_records(request):
    return TRACE_SCENARIOS[request.param]().tracer.records


class TestScenarioTraces:
    def test_pristine_trace(self, scenario_records):
        assert TraceChecker().check(scenario_records) == []
        assert_fold_equals_oracle(scenario_records)

    def test_every_single_record_edit(self, scenario_records):
        records = scenario_records
        # Every position of the small traces; a stride of the larger ones.
        stride = max(1, len(records) // 60)
        for index in range(0, len(records) - 1, stride):
            for edit in (deleted, duplicated, swapped):
                assert_fold_equals_oracle(edit(records, index))

    def test_truncated_window_with_completeness_off(self, scenario_records):
        half = scenario_records[len(scenario_records) // 2:]
        assert_fold_equals_oracle(half, require_complete=False)
        assert_fold_equals_oracle(half)


PERTURBATION = st.one_of(
    st.tuples(
        st.sampled_from([deleted, duplicated, swapped]),
        st.integers(min_value=0, max_value=10_000),
    ),
    st.tuples(
        st.just(tampered),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.sampled_from([1.0, -0.5, 1e-9, 7.25]),
    ),
)


class TestPerturbedTracedRuns:
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        federations(),
        st.lists(PERTURBATION, min_size=1, max_size=12),
    )
    def test_fold_equals_oracle(self, federation, perturbations):
        records = run(*federation).tracer.records
        assert_fold_equals_oracle(records)
        for edit, index, *rest in perturbations:
            if edit is tampered:
                perturbed = tampered(records, index, *rest)
            else:
                perturbed = edit(records, index % (len(records) - 1))
            assert_fold_equals_oracle(perturbed)


class TestAttachedFold:
    def test_attached_fold_ends_where_the_list_fold_ends(self):
        records = TRACE_SCENARIOS["faults"]().tracer.records
        clock = [0.0]
        tracer = Tracer(lambda: clock[0], capacity=len(records) // 3)
        fold = TraceChecker().attach(tracer)
        for record in records:
            clock[0] = record.time
            tracer.emit(record.kind, record.subject, **record.detail)
        # The subscriber saw every record, the evicted prefix included.
        assert fold.observed == len(records)
        assert fold.finish() == TraceChecker().check(records) == []
        # Finishing reads the fold; it does not end it.
        assert fold.finish() == []
        audit = fold.audit()
        assert audit.records == len(records)
        ledgers = [r.detail for r in records if r.kind == events.LEDGER]
        assert audit.ledger_entries == len(ledgers)
        total = 0.0
        for detail in ledgers:
            total += detail["reported_iv"]
        assert audit.ledger_iv == total
