"""Property tests: crash/resume equivalence over random schedules.

The durable layer's headline claim — kill a journaled run at *any* byte,
resume from disk, and the merged run is bit-equal to an uninterrupted
one — must hold for every workload shape the online scheduler serves,
not just the golden fixture.  Hypothesis drives the claim across random
steady/burst/pressure schedules, random crash offsets, and both recovery
paths (scratch replay and snapshot + tail):

* the resumed decision log, window records, stats and IV ledger match
  the reference run bit-for-bit (``run_differences`` is empty),
* every resumed ledger entry still satisfies
  ``recompute_iv() == reported_iv`` exactly,
* the resumed journal itself audits clean through ``verify_journal``
  (crash-during-resume composes by induction),
* with scratch replay, the regenerated-plus-continued trace passes every
  :class:`TraceChecker` rule — recovery rebuilds a trace the live run
  could have emitted, not merely equivalent totals.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.value import DiscountRates
from repro.durable import crash_and_resume, journaled_run, verify_journal
from repro.durable.recovery import run_differences
from repro.federation.costmodel import CostModel, CostParameters
from repro.mqo.ga import GAConfig
from repro.mqo.online import OnlineConfig, OnlineMQOScheduler
from repro.obs import TraceChecker
from repro.sim.trace import Tracer
from repro.workload.query import DSSQuery, Workload

from tests.test_mqo_scheduling import build_catalog

pytestmark = pytest.mark.slow

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TABLE_NAMES = [f"t{index}" for index in range(6)]


@st.composite
def crash_scenarios(draw):
    """A random schedule, scheduler config, crash offset and snapshot cadence."""
    pattern = draw(st.sampled_from(["steady", "burst", "pressure"]))
    count = draw(st.integers(min_value=3, max_value=6))
    if pattern == "steady":
        gap = draw(st.floats(min_value=0.3, max_value=1.5, allow_nan=False))
    elif pattern == "burst":
        gap = 0.01  # everything lands (nearly) at once
    else:  # pressure: arrivals outpace the window
        gap = draw(st.floats(min_value=0.05, max_value=0.2, allow_nan=False))
    workload = Workload()
    for index in range(count):
        tables = tuple(draw(st.lists(
            st.sampled_from(TABLE_NAMES), min_size=1, max_size=3, unique=True,
        )))
        workload.add(
            DSSQuery(
                query_id=index + 1,
                name=f"q{index + 1}",
                tables=tables,
                business_value=draw(
                    st.floats(min_value=0.5, max_value=4.0, allow_nan=False)
                ),
                base_work=draw(st.floats(
                    min_value=2_000.0, max_value=20_000.0, allow_nan=False
                )),
            ),
            arrival=1.0 + index * gap,
        )
    config = OnlineConfig(
        window=draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False)),
        max_pending=2 if pattern == "pressure" else draw(
            st.integers(min_value=2, max_value=count)
        ),
        iv_floor=draw(st.floats(min_value=0.0, max_value=0.2, allow_nan=False)),
        eager_start=draw(st.booleans()),
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    generations = draw(st.integers(min_value=2, max_value=6))
    fraction = draw(st.floats(min_value=0.02, max_value=0.98, allow_nan=False))
    snapshot_every = draw(st.sampled_from([0, 2, 3]))
    return workload, config, seed, generations, fraction, snapshot_every


def scheduler_factory(config, seed, generations, box=None):
    """A fresh-scheduler factory; with ``box``, each scheduler is traced.

    The tracer's clock reads the :class:`SimClock` the harness hands the
    session — captured by wrapping :meth:`scheduler.session` — so traced
    sim runs stamp records with simulation time, like the system driver.
    """

    def make():
        catalog = build_catalog()
        tracer = None
        if box is not None:
            # Explicit None check: an empty SimClock is falsy, but its
            # ``now`` (time of the final pop) is still the right stamp.
            tracer = Tracer(
                lambda: 0.0 if box.get("clock") is None else box["clock"].now
            )
        scheduler = OnlineMQOScheduler(
            catalog,
            CostModel(catalog, params=CostParameters()),
            DiscountRates.symmetric(0.1),
            ga_config=GAConfig(generations=generations),
            seed=seed,
            tracer=tracer,
            config=config,
        )
        if box is not None:
            original = scheduler.session
            def capture(workload, clock):
                box["clock"] = clock
                return original(workload, clock)
            scheduler.session = capture
            box["scheduler"] = scheduler
        return scheduler

    return make


class TestCrashResumeEquivalenceProperty:
    @SETTINGS
    @given(crash_scenarios())
    def test_random_schedule_random_crash_resumes_bit_equal(self, drawn):
        workload, config, seed, generations, fraction, snapshot_every = drawn
        make = scheduler_factory(config, seed, generations)
        with tempfile.TemporaryDirectory() as tmp:
            ref_path = Path(tmp) / "reference.journal"
            reference = journaled_run(make(), workload, ref_path)
            size = ref_path.stat().st_size
            crash_path = Path(tmp) / "crash.journal"
            box: dict = {}
            resumed = crash_and_resume(
                scheduler_factory(config, seed, generations, box=box),
                workload,
                crash_path,
                crash_after_bytes=max(1, int(size * fraction)),
                snapshot_every=snapshot_every,
            )

            assert run_differences(reference, resumed) == []
            for entry in resumed.ledgers:
                assert entry.recompute_iv() == entry.reported_iv

            # Scratch replay regenerates the whole trace; the merged
            # (replayed + continued) stream must satisfy every checker
            # rule, exactly as a live uninterrupted trace would.
            if snapshot_every == 0 and resumed.resumed_at_pops is not None:
                violations = TraceChecker().check(
                    box["scheduler"].tracer.records
                )
                assert violations == []

            audit = verify_journal(crash_path, make)
            assert audit["ok"], audit["mismatches"]

    @SETTINGS
    @given(crash_scenarios())
    def test_tracing_never_perturbs_the_resumed_run(self, drawn):
        # Durability is pure bookkeeping twice over: a traced resumed run
        # and an untraced one make identical decisions.
        workload, config, seed, generations, fraction, snapshot_every = drawn
        with tempfile.TemporaryDirectory() as tmp:
            ref_path = Path(tmp) / "reference.journal"
            reference = journaled_run(
                scheduler_factory(config, seed, generations)(),
                workload, ref_path,
            )
            size = ref_path.stat().st_size
            plain = crash_and_resume(
                scheduler_factory(config, seed, generations),
                workload, Path(tmp) / "plain.journal",
                crash_after_bytes=max(1, int(size * fraction)),
                snapshot_every=snapshot_every,
            )
            traced = crash_and_resume(
                scheduler_factory(config, seed, generations, box={}),
                workload, Path(tmp) / "traced.journal",
                crash_after_bytes=max(1, int(size * fraction)),
                snapshot_every=snapshot_every,
            )
            assert run_differences(reference, plain) == []
            assert run_differences(plain, traced) == []
