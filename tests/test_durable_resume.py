"""Crash/resume equivalence: the durable layer's headline contract.

A journaled run killed at an arbitrary byte offset and resumed from disk
must finish with a decision log and IV ledger **bit-equal** to a run that
was never interrupted.  These tests drive the harness across crash
points, with and without snapshots, audit journals through both recovery
paths, and pin the committed golden journal fixture so schema drift is a
visible diff.

To regenerate the golden fixture after an *intentional* schema change
(bump ``SCHEMA_VERSION`` first, and keep the old fixture as
``tests/golden/durable_v<old>.journal``, pinned as refused)::

    PYTHONPATH=src python - <<'EOF'
    import pathlib
    from tests.test_durable_resume import golden_scheduler, golden_workload
    from repro.durable import journaled_run
    pathlib.Path('tests/golden/durable.journal').unlink()  # writers append
    journaled_run(golden_scheduler(), golden_workload(),
                  'tests/golden/durable.journal', snapshot_every=4)
    EOF
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.value import DiscountRates
from repro.durable import (
    SCHEMA_VERSION,
    crash_and_resume,
    journaled_run,
    read_journal,
    recover,
    verify_journal,
)
from repro.durable.journal import JournalWriter, encode_record
from repro.durable.recovery import run_differences
from repro.errors import DurabilityError
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.ga import GAConfig
from repro.mqo.online import OnlineConfig, OnlineMQOScheduler, _decode_decision
from repro.workload.query import DSSQuery, Workload

from tests.test_mqo_scheduling import build_catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "durable.journal"
GOLDEN_V2 = GOLDEN.with_name("durable_v2.journal")


def golden_scheduler(
    generations: int = 4, seed: int = 7, rate: float = 0.1
) -> OnlineMQOScheduler:
    """A fresh, deterministically-configured scheduler (one per recovery)."""
    catalog = build_catalog()
    return OnlineMQOScheduler(
        catalog,
        CostModel(catalog, params=CostParameters()),
        DiscountRates.symmetric(rate),
        ga_config=GAConfig(generations=generations),
        seed=seed,
        config=OnlineConfig(window=1.0, max_pending=3, iv_floor=0.0),
    )


def golden_workload(count: int = 5) -> Workload:
    """Serializable (base-work) queries arriving in a tight burst."""
    workload = Workload()
    for index in range(count):
        tables = tuple(f"t{(index + j) % 6}" for j in range(3))
        workload.add(
            DSSQuery(
                query_id=index + 1, name=f"q{index + 1}", tables=tables,
                base_work=8_000.0, business_value=1.0 + 0.5 * index,
            ),
            arrival=1.0 + 0.4 * index,
        )
    return workload


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted journaled run, shared across the module."""
    path = tmp_path_factory.mktemp("durable") / "reference.journal"
    run = journaled_run(golden_scheduler(), golden_workload(), path)
    return run, path


class TestJournaledRun:
    def test_reference_journal_is_clean_and_verifiable(self, reference):
        run, path = reference
        records = read_journal(path)
        kinds = [payload["kind"] for payload, _ in records]
        assert kinds[0] == "header"
        assert records[0][0]["schema"] == SCHEMA_VERSION
        assert kinds.count("arrival") == 5
        assert kinds.count("pop") == run.pops
        assert kinds[-1] == "finish" and kinds.count("finish") == 1
        assert records[-1][0]["pops"] == run.pops
        report = verify_journal(path, golden_scheduler)
        assert report["ok"], report["mismatches"]

    def test_recovery_of_a_complete_journal_matches_the_run(self, reference):
        run, path = reference
        recovered = recover(path, golden_scheduler())
        assert recovered.session.decisions == run.session.decisions
        assert [e.to_dict() for e in recovered.ledgers] == [
            e.to_dict() for e in run.ledgers
        ]
        assert not recovered.clock  # nothing left to pop

    def test_every_ledger_entry_recomputes_bit_equal(self, reference):
        run, _ = reference
        assert run.ledgers
        for entry in run.ledgers:
            assert entry.recompute_iv() == entry.reported_iv


class TestCrashAndResume:
    @pytest.mark.parametrize("fraction", [0.15, 0.4, 0.65, 0.9, 0.99])
    @pytest.mark.parametrize("snapshot_every", [0, 3])
    def test_kill_at_byte_offset_resumes_bit_equal(
        self, reference, tmp_path, fraction, snapshot_every
    ):
        run, path = reference
        size = path.stat().st_size
        resumed = crash_and_resume(
            golden_scheduler,
            golden_workload(),
            tmp_path / "crash.journal",
            crash_after_bytes=int(size * fraction),
            snapshot_every=snapshot_every,
        )
        assert run_differences(run, resumed) == []
        assert resumed.resumed_at_pops is not None

    def test_kill_at_every_record_boundary_resumes_bit_equal(self, tmp_path):
        # The golden run (snapshots every 4 pops), killed at each record
        # boundary and one byte either side: a clean cut, a torn first
        # byte and a record missing its terminator all resume bit-equal.
        path = tmp_path / "reference.journal"
        run = journaled_run(
            golden_scheduler(), golden_workload(), path, snapshot_every=4
        )
        size = path.stat().st_size
        boundaries = [offset for _, offset in read_journal(path)] + [size]
        cuts = sorted({
            cut for boundary in boundaries
            for cut in (boundary - 1, boundary, boundary + 1)
            if 0 <= cut <= size
        })
        for cut in cuts:
            crash_path = tmp_path / f"crash{cut}.journal"
            resumed = crash_and_resume(
                golden_scheduler, golden_workload(), crash_path,
                crash_after_bytes=cut, snapshot_every=4,
            )
            assert run_differences(run, resumed) == [], cut
            assert verify_journal(crash_path, golden_scheduler)["ok"], cut

    def test_crash_beyond_the_journal_runs_uninterrupted(
        self, reference, tmp_path
    ):
        run, path = reference
        resumed = crash_and_resume(
            golden_scheduler,
            golden_workload(),
            tmp_path / "crash.journal",
            crash_after_bytes=path.stat().st_size * 3,
        )
        assert resumed.resumed_at_pops is None
        assert run_differences(run, resumed) == []

    def test_resumed_journal_is_itself_verifiable(self, reference, tmp_path):
        # Crash-during-resume composes by induction: the continuation
        # journals too, so the merged journal must audit clean.
        run, path = reference
        crash_path = tmp_path / "crash.journal"
        crash_and_resume(
            golden_scheduler, golden_workload(), crash_path,
            crash_after_bytes=path.stat().st_size // 2,
            snapshot_every=3,
        )
        report = verify_journal(crash_path, golden_scheduler)
        assert report["ok"], report["mismatches"]

    def test_double_crash_still_converges(self, reference, tmp_path):
        run, path = reference
        crash_path = tmp_path / "crash.journal"
        size = path.stat().st_size
        # First crash + journaled resume...
        first = crash_and_resume(
            golden_scheduler, golden_workload(), crash_path,
            crash_after_bytes=size // 3,
        )
        # ...then tear the *resumed* journal and recover again.
        data = crash_path.read_bytes()
        crash_path.write_bytes(data[: len(data) - 7])
        recovered = recover(crash_path, golden_scheduler())
        writer = JournalWriter(crash_path, truncate_to=recovered.valid_bytes)
        from repro.durable import resume_run

        second = resume_run(recovered, writer)
        assert run_differences(run, second) == []


class TestRecoveryAudit:
    @staticmethod
    def _forge(path, forged, kind, nth, tamper) -> int:
        """Rewrite ``path`` into ``forged`` with the ``nth`` ``kind``
        record changed by ``tamper``; returns the forged record's offset."""
        seen = 0
        tampered_offset = None
        with open(forged, "wb") as handle:
            for payload, _ in read_journal(path):
                if payload["kind"] == kind:
                    seen += 1
                    if seen == nth:
                        payload = {**payload, **tamper(payload)}
                        tampered_offset = handle.tell()
                handle.write(encode_record(payload))
        assert tampered_offset is not None
        return tampered_offset

    def test_tampered_pop_digest_is_rejected_at_its_offset(
        self, reference, tmp_path
    ):
        _, path = reference
        forged = tmp_path / "forged.journal"
        offset = self._forge(
            path, forged, "pop", 5, lambda pop: {"digest": "f" * 16}
        )
        with pytest.raises(DurabilityError) as error:
            recover(forged, golden_scheduler())
        assert error.value.offset == offset

    def test_tampered_pop_payload_is_rejected_at_its_offset(
        self, reference, tmp_path
    ):
        _, path = reference
        forged = tmp_path / "forged.journal"
        offset = self._forge(
            path, forged, "pop", 2, lambda pop: {"payload": 999}
        )
        with pytest.raises(DurabilityError) as error:
            recover(forged, golden_scheduler())
        assert error.value.offset == offset

    @pytest.mark.parametrize("kind", ["snapshot", "finish"])
    def test_tampered_audit_digest_is_rejected_at_its_offset(
        self, tmp_path, kind
    ):
        # Scratch replay audits every snapshot; the finish record closes
        # the chain on both recovery paths.
        forged = tmp_path / "forged.journal"
        offset = self._forge(
            GOLDEN, forged, kind, 1, lambda record: {"digest": "0" * 16}
        )
        with pytest.raises(DurabilityError) as error:
            recover(forged, golden_scheduler(), use_snapshot=False)
        assert error.value.offset == offset

    def test_other_discount_rates_are_refused_on_a_complete_journal(
        self, reference, tmp_path
    ):
        # Rates 0.2 instead of 0.1 make the same pops and the same
        # decisions; only the IVs differ, so only the digest can tell.
        run, path = reference
        other_path = tmp_path / "rates.journal"
        other = journaled_run(
            golden_scheduler(rate=0.2), golden_workload(), other_path
        )
        ours, theirs = read_journal(path), read_journal(other_path)

        def events(records):
            return [
                (record["time"], record["tag"], record["payload"])
                for record, _ in records if record["kind"] == "pop"
            ]

        assert events(ours) == events(theirs)
        assert other.session.decisions == run.session.decisions
        assert [e.reported_iv for e in other.ledgers] != [
            e.reported_iv for e in run.ledgers
        ]
        first_difference = next(
            offset for (mine, offset), (its, _) in zip(ours, theirs)
            if mine != its
        )
        with pytest.raises(DurabilityError) as error:
            recover(path, golden_scheduler(rate=0.2))
        assert error.value.offset == first_difference

    def test_wrong_scheduler_config_cannot_silently_recover(
        self, reference
    ):
        # A scheduler with a different admission policy diverges from the
        # journal; the per-record audit must catch it (naming the record's
        # offset) rather than resume into a state the crashed run never
        # had.
        _, path = reference
        catalog = build_catalog()
        misconfigured = OnlineMQOScheduler(
            catalog,
            CostModel(catalog, params=CostParameters()),
            DiscountRates.symmetric(0.1),
            ga_config=GAConfig(generations=4),
            seed=7,
            config=OnlineConfig(window=1.0, max_pending=1, iv_floor=0.0),
        )
        with pytest.raises(DurabilityError) as error:
            recover(path, misconfigured)
        assert error.value.offset is not None

    def test_journal_without_header_is_rejected(self, tmp_path):
        path = tmp_path / "headless.journal"
        with open(path, "wb") as handle:
            handle.write(encode_record({"kind": "pop", "time": 0.0,
                                        "tag": "arrival", "payload": 1}))
        with pytest.raises(DurabilityError):
            recover(path, golden_scheduler())

    def test_unsupported_schema_is_rejected(self, tmp_path):
        # A future schema, and the previous one: a v1 journal ticks idle
        # windows this scheduler never pushes, so it is refused at its
        # header rather than mid-replay.
        for schema in (SCHEMA_VERSION + 1, SCHEMA_VERSION - 1):
            path = tmp_path / f"schema{schema}.journal"
            with open(path, "wb") as handle:
                handle.write(encode_record(
                    {"kind": "header", "schema": schema, "meta": {}}
                ))
            with pytest.raises(DurabilityError) as error:
                recover(path, golden_scheduler())
            assert "schema" in str(error.value)
            assert error.value.offset == 0


class TestGoldenJournal:
    """The committed fixture pins schema v3's on-disk shape.

    Byte-exact comparison is impossible — snapshots carry wall-clock
    ``reopt_seconds`` — so the pin is structural: the record-kind
    sequence, every pop and its digest, and the full decision log and
    ledger must recover exactly, through both recovery paths.
    """

    def test_golden_journal_parses_and_pins_the_schema(self):
        records = read_journal(GOLDEN)
        assert records[0][0]["kind"] == "header"
        assert records[0][0]["schema"] == SCHEMA_VERSION == 3
        kinds = {payload["kind"] for payload, _ in records}
        assert kinds == {"header", "arrival", "pop", "snapshot", "finish"}

    def test_golden_journal_recovers_and_verifies(self):
        report = verify_journal(GOLDEN, golden_scheduler)
        assert report["ok"], report["mismatches"]
        assert report["arrivals"] == 5
        assert report["snapshot_pops"] > 0
        assert report["tail_error"] is None

    def test_golden_journal_is_exactly_todays_records(self, tmp_path):
        # Record for record, in order: arrivals, pops with their digests,
        # snapshots and the finish record — everything but the wall-clock
        # re-opt times.
        def strip(value):
            if isinstance(value, dict):
                return {
                    key: strip(item) for key, item in value.items()
                    if key != "reopt_seconds"
                }
            if isinstance(value, list):
                return [strip(item) for item in value]
            return value

        path = tmp_path / "today.journal"
        journaled_run(
            golden_scheduler(), golden_workload(), path, snapshot_every=4
        )
        today = [strip(payload) for payload, _ in read_journal(path)]
        golden = [strip(payload) for payload, _ in read_journal(GOLDEN)]
        assert len(golden) == 30
        assert today == golden

    def test_golden_journal_reproduces_todays_run(self, tmp_path):
        # The scheduler of record, run today, must still make the exact
        # decisions the fixture froze — GA determinism across versions.
        recovered = recover(GOLDEN, golden_scheduler())
        fresh = journaled_run(
            golden_scheduler(), golden_workload(), tmp_path / "j"
        )
        assert recovered.session.decisions == fresh.session.decisions
        assert [e.to_dict() for e in recovered.ledgers] == [
            e.to_dict() for e in fresh.ledgers
        ]


class TestGoldenV2Journal:
    """The schema-2 fixture: refused, yet its recorded outputs still hold.

    v2 journaled every decision and ledger entry; the v3 golden records
    only inputs.  Recovering the v3 golden must derive exactly what v2
    recorded, which carries the frozen GA decisions across the bump.
    """

    def test_v2_journal_is_refused_at_its_header(self):
        assert read_journal(GOLDEN_V2)[0][0]["schema"] == 2
        with pytest.raises(DurabilityError) as error:
            recover(GOLDEN_V2, golden_scheduler())
        assert "schema" in str(error.value)
        assert error.value.offset == 0

    def test_v2_recorded_outputs_equal_the_v3_recovery(self):
        records = [payload for payload, _ in read_journal(GOLDEN_V2)]
        recovered = recover(GOLDEN, golden_scheduler())
        assert [
            _decode_decision(record["entry"])
            for record in records if record["kind"] == "decision"
        ] == recovered.session.decisions
        assert [
            record["entry"] for record in records if record["kind"] == "ledger"
        ] == [entry.to_dict() for entry in recovered.ledgers]
