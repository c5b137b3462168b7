"""Unit tests: the IV audit ledger (recomputation, provenance, serialization)."""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given
from hypothesis import strategies as st

from repro.core.value import DiscountRates, information_value
from repro.obs.ledger import IVLedgerEntry, VersionProvenance


def make_entry(**overrides) -> IVLedgerEntry:
    """A realistic completed-query entry; override any field."""
    fields = dict(
        query="q1",
        query_id=7,
        business_value=1.0,
        lambda_cl=0.0321,
        lambda_sl=0.0123,
        submitted_at=10.0,
        started_at=10.5,
        remote_done_at=14.25,
        local_granted_at=15.0,
        local_done_at=17.75,
        completed_at=18.0,
        data_timestamp=12.5,
        queue_wait=0.75,
        remote_wait=1.5,
        retries=1,
        failovers=0,
        degraded=True,
        failed=False,
        reported_iv=0.0,
        versions=(
            VersionProvenance("a", "base", 1, 12.5, 12.5, None),
            VersionProvenance("b", "replica", None, 13.0, 14.0, 14.0),
        ),
    )
    fields.update(overrides)
    if "reported_iv" not in overrides and not fields["failed"]:
        # Report exactly what the formula yields for these floats.
        fields["reported_iv"] = information_value(
            fields["business_value"],
            fields["completed_at"] - fields["submitted_at"],
            max(0.0, fields["completed_at"] - fields["data_timestamp"]),
            DiscountRates(fields["lambda_cl"], fields["lambda_sl"]),
        )
    return IVLedgerEntry(**fields)


class TestPhaseDecomposition:
    def test_phase_properties_are_timestamp_differences(self):
        entry = make_entry()
        assert entry.scheduled_delay == 0.5
        assert entry.remote_phase == 3.75
        assert entry.processing == 2.75
        assert entry.transfer == 0.25
        assert entry.computational_latency == 8.0
        assert entry.synchronization_latency == 5.5

    def test_phase_sum_conserves_cl(self):
        entry = make_entry()
        assert abs(entry.phase_sum - entry.computational_latency) < 1e-9

    def test_sl_clamps_at_zero_for_future_data(self):
        entry = make_entry(data_timestamp=50.0)
        assert entry.synchronization_latency == 0.0


class TestIVRecomputation:
    def test_recompute_is_bit_identical(self):
        entry = make_entry()
        assert entry.recompute_iv() == entry.reported_iv

    def test_failed_entries_recompute_to_zero(self):
        entry = make_entry(failed=True, reported_iv=0.0)
        assert entry.recompute_iv() == 0.0

    def test_rates_round_trip(self):
        entry = make_entry()
        assert entry.rates == DiscountRates(0.0321, 0.0123)


class TestProvenance:
    def test_stalest_is_minimum_realized_freshness(self):
        entry = make_entry()
        assert entry.stalest is not None
        assert entry.stalest.table == "a"
        assert entry.stalest.realized_freshness == entry.data_timestamp

    def test_stalest_none_without_versions(self):
        entry = make_entry(versions=())
        assert entry.stalest is None

    def test_explain_names_every_version(self):
        text = make_entry().explain()
        assert "a[base]" in text and "b[replica]" in text
        assert "<- stalest" in text
        assert "degraded" in text

    def test_explain_marks_failed(self):
        text = make_entry(failed=True, reported_iv=0.0).explain()
        assert "FAILED" in text


class TestSerialization:
    def test_dict_round_trip_is_lossless(self):
        entry = make_entry()
        assert IVLedgerEntry.from_dict(entry.to_dict()) == entry

    def test_json_round_trip_preserves_float_bits(self):
        # Awkward floats whose repr must survive a JSON round-trip exactly.
        entry = make_entry(
            submitted_at=0.1 + 0.2,
            completed_at=10.0 / 3.0 + 7.0,
            data_timestamp=2.0 / 3.0,
        )
        revived = IVLedgerEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert revived == entry
        assert revived.recompute_iv() == entry.recompute_iv()

    def test_version_provenance_round_trip(self):
        version = VersionProvenance("t", "replica", None, 1.5, 2.5, 2.5)
        assert VersionProvenance.from_dict(version.to_dict()) == version


def asdict_reference(entry: IVLedgerEntry) -> dict:
    """The ``dataclasses.asdict`` serialization ``to_dict`` replaced."""
    data = dataclasses.asdict(entry)
    data["versions"] = [dataclasses.asdict(version) for version in entry.versions]
    return data


_floats = st.floats(allow_nan=False)
_versions = st.builds(
    VersionProvenance,
    table=st.text(max_size=4),
    kind=st.sampled_from(["base", "replica"]),
    site=st.none() | st.integers(-3, 9),
    planned_freshness=_floats,
    realized_freshness=_floats,
    last_sync_at=st.none() | _floats,
)
_entries = st.builds(
    IVLedgerEntry,
    query=st.text(max_size=6),
    query_id=st.integers(0, 10**6),
    business_value=_floats,
    lambda_cl=_floats,
    lambda_sl=_floats,
    submitted_at=_floats,
    started_at=_floats,
    remote_done_at=_floats,
    local_granted_at=_floats,
    local_done_at=_floats,
    completed_at=_floats,
    data_timestamp=_floats,
    queue_wait=_floats,
    remote_wait=_floats,
    retries=st.integers(0, 5),
    failovers=st.integers(0, 5),
    degraded=st.booleans(),
    failed=st.booleans(),
    reported_iv=_floats,
    versions=st.lists(_versions, max_size=3).map(tuple),
)


class TestDictMatchesAsdict:
    """``to_dict`` builds from field names; its output is ``asdict``'s."""

    @given(_entries)
    def test_same_dict_key_order_and_json_bytes(self, entry):
        data, reference = entry.to_dict(), asdict_reference(entry)
        assert data == reference
        assert list(data) == list(reference)
        for version, expected in zip(data["versions"], reference["versions"]):
            assert list(version.items()) == list(expected.items())
        assert json.dumps(data) == json.dumps(reference)
        assert IVLedgerEntry.from_dict(data) == entry

    @given(_versions)
    def test_version_dict_matches_asdict(self, version):
        data = version.to_dict()
        assert list(data.items()) == list(dataclasses.asdict(version).items())
        assert VersionProvenance.from_dict(data) == version
