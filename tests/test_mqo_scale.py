"""The EXT5 sharded scale sweep (``repro.experiments.scale``).

Small configurations of the same pipeline the committed benchmark runs:
conflict-group sharding must conserve queries (each dispatched or shed
exactly once across shards), stay deterministic per shard, and produce
identical results whether shards run serially or in spawned worker
processes.  The committed 10^5-query configuration itself is exercised
by ``make bench-scale``; here a mid-size steady stream rides behind the
``slow`` marker.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments import scale
from repro.experiments.scale import (
    DEFAULT_SCHEDULES,
    MILLION_SCHEDULES,
    ScaleConfig,
    ScheduleSpec,
    build_stream,
    run_scale,
    run_scale_sweep,
    run_schedule,
    shard_assignments,
)

#: Deterministic fields of a schedule's metrics (wall times excluded).
_STABLE = ("queries", "shards", "dispatched", "shed", "deferred",
           "windows", "ga_runs")

STEADY = ScheduleSpec("steady", queries=400, arrival="poisson",
                      interarrival=1.0)
BURST = ScheduleSpec("burst", queries=128, arrival="burst",
                     interarrival=20.0, burst_size=8, max_pending=64,
                     population_size=8, generations=3)
PRESSURE = ScheduleSpec("pressure", queries=200, arrival="poisson",
                        interarrival=0.4, max_pending=8)


def small_config(**overrides) -> ScaleConfig:
    defaults = dict(shards=2, executor="serial", schedules=(STEADY,))
    defaults.update(overrides)
    return ScaleConfig(**defaults)


def stable(metrics: dict) -> dict:
    picked = {key: metrics[key] for key in _STABLE}
    picked["total_iv"] = metrics["total_iv"]["online"]
    picked["groups"] = metrics["group_formation"]["groups"]
    picked["largest_group"] = metrics["group_formation"]["largest_group"]
    return picked


class TestConfigValidation:
    def test_schedule_spec_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="queries"):
            ScheduleSpec("s", queries=0)
        with pytest.raises(ConfigError, match="arrival"):
            ScheduleSpec("s", queries=1, arrival="uniform")
        with pytest.raises(ConfigError, match="interarrival"):
            ScheduleSpec("s", queries=1, interarrival=0.0)
        with pytest.raises(ConfigError, match="burst_size"):
            ScheduleSpec("s", queries=1, burst_size=0)

    def test_scale_config_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="shards"):
            small_config(shards=0)
        with pytest.raises(ConfigError, match="executor"):
            small_config(executor="thread")
        with pytest.raises(ConfigError, match="sites"):
            small_config(sites=99)
        with pytest.raises(ConfigError, match="schedule"):
            small_config(schedules=())

    def test_default_and_million_presets(self):
        assert DEFAULT_SCHEDULES[0].queries == 100_000
        assert MILLION_SCHEDULES[0].queries == 1_000_000
        assert MILLION_SCHEDULES[1:] == DEFAULT_SCHEDULES[1:]
        names = [spec.name for spec in DEFAULT_SCHEDULES]
        assert names == ["steady", "burst", "pressure"]


class TestStreamAndSharding:
    def test_burst_stream_clumps_arrivals(self):
        workload = build_stream(small_config(), BURST)
        arrivals = [workload.arrival_of(q.query_id)
                    for q in workload.queries]
        assert arrivals == sorted(arrivals)
        # Queries 1..8 form the first burst, 9..16 start one gap later.
        assert arrivals[8] - arrivals[0] == pytest.approx(20.0)
        assert arrivals[7] - arrivals[0] == pytest.approx(0.35)

    def test_poisson_stream_is_seeded(self):
        first = build_stream(small_config(), STEADY)
        second = build_stream(small_config(), STEADY)
        assert [first.arrival_of(q.query_id) for q in first.queries] == [
            second.arrival_of(q.query_id) for q in second.queries
        ]

    def test_shard_assignments_keep_groups_whole(self):
        groups = [[1, 2, 3], [4], [5, 6], [7], [8, 9, 10, 11]]
        assigned = shard_assignments(groups, 2)
        flat = sorted(qid for shard in assigned for qid in shard)
        assert flat == list(range(1, 12))
        for group in groups:
            owners = {
                index
                for index, shard in enumerate(assigned)
                for qid in group if qid in shard
            }
            assert len(owners) == 1, f"group {group} split across {owners}"

    def test_shard_assignments_balance_greedily(self):
        groups = [[1, 2, 3], [4, 5], [6], [7]]
        assert shard_assignments(groups, 2) == [[1, 2, 3, 7], [4, 5, 6]]
        # More shards than groups leaves trailing shards empty.
        assert shard_assignments([[1]], 3) == [[1], [], []]
        with pytest.raises(ConfigError, match="shards"):
            shard_assignments(groups, 0)


class TestRunSchedule:
    def test_conserves_queries_and_reports_metrics(self):
        config = small_config()
        metrics = run_schedule(config, STEADY)
        assert metrics["dispatched"] + metrics["shed"] == STEADY.queries
        assert metrics["shards"] <= config.shards
        assert metrics["group_formation"]["ranges_per_sec"] > 0
        assert metrics["queries_per_sec"] > 0
        assert metrics["peak_rss_mb"] > 0
        reopt = metrics["reopt"]
        assert reopt["p50_ms"] <= reopt["p95_ms"] <= reopt["p99_ms"]
        assert metrics["total_iv"]["online"] > 0

    def test_deterministic_across_runs(self):
        config = small_config()
        first = run_schedule(config, STEADY)
        second = run_schedule(config, STEADY)
        assert stable(first) == stable(second)

    def test_process_executor_matches_serial(self):
        serial = run_schedule(small_config(), STEADY)
        process = run_schedule(small_config(executor="process"), STEADY)
        assert stable(serial) == stable(process)

    def test_single_shard_dispatches_everything_too(self):
        sharded = run_schedule(small_config(), STEADY)
        unsharded = run_schedule(small_config(shards=1), STEADY)
        assert unsharded["shards"] == 1
        assert (
            unsharded["dispatched"] + unsharded["shed"]
            == sharded["dispatched"] + sharded["shed"]
        )

    def test_pressure_schedule_defers(self):
        metrics = run_schedule(small_config(), PRESSURE)
        assert metrics["deferred"] > 0
        assert metrics["dispatched"] + metrics["shed"] == PRESSURE.queries

    def test_burst_schedule_forms_burst_sized_groups(self):
        metrics = run_schedule(small_config(), BURST)
        assert metrics["group_formation"]["largest_group"] >= BURST.burst_size
        assert metrics["dispatched"] == BURST.queries

    def test_reopt_percentiles_are_nearest_rank(self):
        # The value at 1-based rank ceil(q * n): the p50 of 5 is the 3rd,
        # the p99 of 61 the 61st (rounding q * n would pick the 2nd and
        # the 60th, half to even).
        five = [k / 1000.0 for k in range(1, 6)]
        sixty_one = [k / 1000.0 for k in range(1, 62)]
        assert scale._percentile_ms(five, 0.50) == five[2] * 1000.0
        assert scale._percentile_ms(sixty_one, 0.99) == sixty_one[60] * 1000.0
        assert scale._percentile_ms(five, 0.0) == five[0] * 1000.0
        assert scale._percentile_ms([], 0.50) == 0.0


class TestSweepAndTable:
    def test_sweep_shape_matches_snapshot_contract(self):
        config = small_config(schedules=(STEADY, PRESSURE))
        data = run_scale_sweep(config)
        assert set(data["schedules"]) == {"steady", "pressure"}
        assert data["config"]["shards"] == config.shards
        for metrics in data["schedules"].values():
            assert {"queries_per_sec", "wall_seconds", "reopt",
                    "total_iv", "peak_rss_mb"} <= set(metrics)

    def test_result_table_has_one_row_per_schedule(self):
        table = run_scale(small_config(schedules=(STEADY, BURST)))
        assert len(table.rows) == 2
        rendered = table.render()
        assert "steady" in rendered and "burst" in rendered
        assert "qps" in rendered


#: ``total_iv`` per schedule as ``float.hex()``, captured on the commit
#: before per-arrival lowering replaced the per-plan compile (PR 15's
#: parent): ``online`` plus every shard, equal for both executors.  The
#: ``burst`` config ran on the numpy batch evaluator then and runs on the
#: scalar path now; no pin moved (no near-tie flipped).
GOLDEN_SPECS = {
    "steady": ScheduleSpec("steady", queries=600, arrival="poisson",
                           interarrival=1.0),
    "burst": ScheduleSpec("burst", queries=192, arrival="burst",
                          interarrival=20.0, burst_size=8, max_pending=64,
                          population_size=8, generations=3),
    "pressure": ScheduleSpec("pressure", queries=300, arrival="poisson",
                             interarrival=0.4, max_pending=8),
}
GOLDEN_TOTAL_IV = {
    "steady": {
        "online": "0x1.ecd9becaeeceap+8",
        "shard0": "0x1.f8a80a1c6de66p+7",
        "shard1": "0x1.e10b73796fb6dp+7",
    },
    "burst": {
        "online": "0x1.22b74fd1cd83dp+7",
        "shard0": "0x1.26f43dc64ef6dp+6",
        "shard1": "0x1.1e7a61dd4c10dp+6",
    },
    "pressure": {
        "online": "0x1.7b8bd7df8d102p+7",
        "shard0": "0x1.587772850219fp+6",
        "shard1": "0x1.9ea03d3a18065p+6",
    },
}
GOLDEN_COUNTERS = {
    "steady": {"deferred": 0, "windows": 495, "ga_runs": 94, "groups": 181},
    "burst": {"deferred": 0, "windows": 66, "ga_runs": 42, "groups": 24},
    "pressure": {"deferred": 79, "windows": 194, "ga_runs": 213, "groups": 17},
}
#: Work the GA and the evaluator did for those configs.  Everything that
#: counts a decision — GA fitness calls and cache hits, walks, lowerings,
#: what a naive replay would have realized — is as
#: captured on the commit before GA fitness became a totals-only walk
#: (``burst`` with ``vectorized=False`` there: the numpy scorer bypassed
#: these counters).  Three counters were re-captured when the walk
#: stopped consulting the choice memo: ``choice_hits`` now counts dispatch
#: probes only, and the positions the memo used to answer are scored
#: again, which shows up as more ``realize_calls`` and more
#: ``candidates_pruned``.  Two more moved when each arrival came to be
#: lowered once: ``lowerings`` counts selections, made in the range prelude
#: only and shipped to the shards (exactly one per query, half of 1200 /
#: 384 / 600), and a GA run that has scored every permutation of its group
#: stops, so the generations it no longer runs no longer re-read the memo
#: (``cache_hits`` was 882 / 834 / 1619; ``burst``'s 8-query groups never
#: exhaust).  ``fitness_calls`` and every evaluator counter stayed.  When
#: the prefix trie and the dispatch memo went, the positions they had
#: answered came to be scored again: ``realize_calls`` and
#: ``candidates_pruned`` rose (from 2911 / 6160 / 14124 and
#: 894 / 855 / 1112), and ``choice_hits`` and ``prefix_hits`` left the pin.
GOLDEN_WORK = {
    "steady": {"fitness_calls": 246, "cache_hits": 430, "evaluations": 246,
               "realize_calls": 3527, "naive_realize_calls": 4641,
               "candidates_pruned": 1114, "lowerings": 600},
    "burst": {"fitness_calls": 510, "cache_hits": 834, "evaluations": 510,
              "realize_calls": 7790, "naive_realize_calls": 9208,
              "candidates_pruned": 1418, "lowerings": 192},
    "pressure": {"fitness_calls": 937, "cache_hits": 1263, "evaluations": 937,
                 "realize_calls": 16856, "naive_realize_calls": 18326,
                 "candidates_pruned": 1470, "lowerings": 300},
}


class TestBitEqualGoldens:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_total_iv_is_bit_equal_to_the_pre_lowering_run(self, name, executor):
        spec = GOLDEN_SPECS[name]
        metrics = run_schedule(
            small_config(executor=executor, schedules=(spec,)), spec
        )
        assert {
            key: value.hex() for key, value in metrics["total_iv"].items()
        } == GOLDEN_TOTAL_IV[name]
        assert metrics["dispatched"] == spec.queries
        assert metrics["shed"] == 0
        counters = {key: metrics[key] for key in ("deferred", "windows", "ga_runs")}
        counters["groups"] = metrics["group_formation"]["groups"]
        assert counters == GOLDEN_COUNTERS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_ga_and_evaluator_do_exactly_the_same_work(self, name, monkeypatch):
        from repro.mqo.ga import GeneticAlgorithm
        from repro.mqo.online import OnlineMQOScheduler

        work = dict.fromkeys(GOLDEN_WORK[name], 0)
        del work["lowerings"]  # read from the schedule's own metrics
        ga_run = GeneticAlgorithm.run
        scheduler_run = OnlineMQOScheduler.run

        def counting_ga_run(self, *args, **kwargs):
            result = ga_run(self, *args, **kwargs)
            work["fitness_calls"] += result.fitness_calls
            work["cache_hits"] += result.cache_hits
            return result

        def counting_scheduler_run(self, *args):
            decision = scheduler_run(self, *args)
            for counter in work.keys() - {"fitness_calls", "cache_hits"}:
                work[counter] += getattr(decision.evaluator_stats, counter)
            return decision

        monkeypatch.setattr(GeneticAlgorithm, "run", counting_ga_run)
        monkeypatch.setattr(OnlineMQOScheduler, "run", counting_scheduler_run)
        spec = GOLDEN_SPECS[name]
        metrics = run_schedule(small_config(schedules=(spec,)), spec)
        work["lowerings"] = metrics["work"]["lowerings"]
        assert work == GOLDEN_WORK[name]

    def test_the_vectorized_field_is_accepted_and_inert(self):
        # benchmarks/e2e/workloads.py (frozen) still passes it.
        from dataclasses import replace

        spec = GOLDEN_SPECS["burst"]
        flagged = replace(spec, vectorized=True)
        plain = run_schedule(small_config(schedules=(spec,)), spec)
        assert stable(
            run_schedule(small_config(schedules=(flagged,)), flagged)
        ) == stable(plain)


#: sha256 of the merged fleet trace (``to_jsonl`` of every shard's records)
#: for the golden configs, serial, two shards, ``trace`` + ``fleet_metrics``
#: — captured before every driver moved onto ``drive`` and its observers,
#: with the record counts it covered.
GOLDEN_FLEET_TRACE = {
    "steady": (4095, "829c5e3fa34aacea493d59443dc12ded"
                     "7d1eb06377e22ea7d92651a834919b42"),
    "burst": (1218, "bf7b039276bd627fcca99f671c00d922"
                    "40c4c8cac1e5d27493b71f90c3bfd764"),
    "pressure": (1994, "0de228ba03f128409bbdc3261745d3ca"
                       "f0d890f911c56c68fdcb0f83b4734793"),
}


class TestFleetTraceGolden:
    @staticmethod
    def merged_trace(name: str, **overrides) -> tuple:
        """``(records, sha256)`` of the merged fleet trace; asserts it
        is checker-clean."""
        import hashlib

        from repro.obs.export import to_jsonl
        from tests.test_obs_fleet import tagged_trace

        spec = GOLDEN_SPECS[name]
        fleet = {}

        def on_fleet(_name, collector, violations):
            records = tagged_trace(collector)
            fleet["records"] = len(records)
            fleet["sha256"] = hashlib.sha256(
                to_jsonl(records).encode()
            ).hexdigest()
            fleet["violations"] = violations

        run_schedule(
            small_config(
                schedules=(spec,), trace=True, fleet_metrics=True,
                **overrides,
            ),
            spec, on_fleet=on_fleet,
        )
        assert fleet["violations"] == []
        return fleet["records"], fleet["sha256"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_merged_trace_is_byte_identical(self, name):
        assert self.merged_trace(name) == GOLDEN_FLEET_TRACE[name]

    def test_records_pickled_through_the_pool_hash_the_same(self):
        # Spawned workers return their records in the pool's pickled
        # result; the merged trace must not tell the executors apart.
        assert self.merged_trace(
            "burst", executor="process"
        ) == GOLDEN_FLEET_TRACE["burst"]

    def test_the_spool_dir_field_is_accepted_and_inert(self, tmp_path):
        # benchmarks/e2e/sim_child.py (frozen) still passes it; shards
        # return their records and write no file.
        spool_dir = tmp_path / "spool"
        assert self.merged_trace(
            "steady", spool_dir=str(spool_dir)
        ) == GOLDEN_FLEET_TRACE["steady"]
        assert not spool_dir.exists()


class TestCacheCapsNeverDecide:
    """Every evaluator and cost-model cache is exact, so no cap on one may
    change a decision — through the production path, where the base
    clocks are not idle."""

    @staticmethod
    def run(spec, monkeypatch, patches=()) -> list[tuple]:
        """Per shard session: decision log, dispatch order, total IV.

        ``patches`` are extra ``(owner, attribute, value)`` to set for the
        run only.
        """
        from repro.mqo.online import OnlineMQOScheduler

        sessions = []
        open_session = OnlineMQOScheduler.session

        def recorded_session(self, *args):
            session = open_session(self, *args)
            sessions.append(session)
            return session

        with monkeypatch.context() as patch:
            patch.setattr(OnlineMQOScheduler, "session", recorded_session)
            for owner, attribute, value in patches:
                patch.setattr(owner, attribute, value)
            run_schedule(small_config(schedules=(spec,)), spec)
        assert len(sessions) == 2
        return [
            (
                list(session.decisions),
                [a.query.query_id
                 for a in session.decision.result.assignments],
                session.decision.total_information_value.hex(),
            )
            for session in sessions
        ]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_one_staleness_order_per_shape(self, name, monkeypatch):
        from repro.mqo import evaluator

        spec = GOLDEN_SPECS[name]
        reference = self.run(spec, monkeypatch)
        monkeypatch.setattr(evaluator, "_MAX_STALENESS_ORDERS", 1)
        assert self.run(spec, monkeypatch) == reference


    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_one_entry_cost_model_caches(self, name, monkeypatch):
        from repro.federation.costmodel import CostModel

        class OneEntry(dict):
            def __setitem__(self, key, value):
                self.clear()
                super().__setitem__(key, value)

        build = CostModel.__init__

        def build_capped(self, *args, **kwargs):
            build(self, *args, **kwargs)
            self._base_work_cache = OneEntry()
            self._combo_cache = OneEntry()

        spec = GOLDEN_SPECS[name]
        assert self.run(
            spec, monkeypatch, patches=[(CostModel, "__init__", build_capped)]
        ) == self.run(spec, monkeypatch)


def unshipped_payloads(*args, shard_payloads=scale._shard_payloads):
    """``_shard_payloads`` with every shipped selection taken out again."""
    return [
        (*payload[:3], {}, *payload[4:]) for payload in shard_payloads(*args)
    ]


class TestShippedSelectionsNeverDecide:
    """A shard that selects for itself decides what one handed the
    prelude's selections does: shipping moves work, nothing else."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_serial_decision_logs(self, name, monkeypatch):
        spec = GOLDEN_SPECS[name]
        run = TestCacheCapsNeverDecide.run
        assert run(
            spec, monkeypatch,
            patches=[(scale, "_shard_payloads", unshipped_payloads)],
        ) == run(spec, monkeypatch)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_totals_and_work(self, name, executor, monkeypatch):
        # Worker processes import afresh, so the parent's payloads are
        # what can be changed; their logs stay home, their totals return.
        spec = GOLDEN_SPECS[name]
        config = small_config(executor=executor, schedules=(spec,))
        shipped = run_schedule(config, spec)
        monkeypatch.setattr(scale, "_shard_payloads", unshipped_payloads)
        unshipped = run_schedule(config, spec)
        assert stable(unshipped) == stable(shipped)
        assert {
            key: value.hex() for key, value in unshipped["total_iv"].items()
        } == GOLDEN_TOTAL_IV[name]
        assert shipped["work"]["lowerings"] == spec.queries
        assert unshipped["work"]["lowerings"] == 2 * spec.queries
        assert {**unshipped["work"], "lowerings": spec.queries} == (
            shipped["work"]
        )


class TestWorkCounters:
    """Compile work is O(shapes) per process + one lowering per arrival."""

    def test_two_thousand_queries_compile_per_shape_not_per_query(self):
        spec = ScheduleSpec("steady", queries=2_000, arrival="poisson",
                            interarrival=1.0)
        config = small_config(schedules=(spec,))
        work = run_schedule(config, spec)["work"]
        # Every process (the range prelude and each shard) owns one cost
        # model and one evaluator; a template has at most 2**2 combos over
        # its two tables (12 templates: 6 x 2 + 6 x 4 = templates x 3).
        processes = 1 + config.shards
        assert 0 < work["cost_compiles"] <= config.templates * 3 * processes
        assert 0 < work["shapes"] <= config.templates * processes
        # Selected once, in the range prelude; its shard builds the
        # candidate records from the shipped selection.
        assert work["lowerings"] == spec.queries

    def test_serial_and_process_do_the_same_work(self):
        serial = run_schedule(small_config(), STEADY)["work"]
        process = run_schedule(small_config(executor="process"), STEADY)["work"]
        assert serial == process


class TestShardMemoryIsTheShardsOwn:
    """Regression: shards reported ``ru_maxrss``, which survives fork+exec,
    so every spawned worker reported at least the parent's peak."""

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs Linux /proc"
    )
    def test_spawned_shard_does_not_inherit_the_parents_peak(self):
        import resource

        ballast = b"x" * (192 * 1024 * 1024)  # resident in the parent
        parent_peak_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        assert parent_peak_mb > 192
        metrics = run_schedule(small_config(executor="process"), STEADY)
        del ballast
        assert 0 < metrics["peak_rss_mb"] < 150
        assert all(0 < value < 150 for value in metrics["rss"].values()
                   if value != metrics["rss"]["sum_rss_mb"])

    def test_peak_rss_reads_vm_hwm(self):
        from repro.experiments.scale import _peak_rss_kb

        status = Path("/proc/self/status")
        if not status.exists():
            assert _peak_rss_kb() > 0  # ru_maxrss fallback
            return
        first = _peak_rss_kb()
        hwm = next(
            int(line.split()[1])
            for line in status.read_text().splitlines()
            if line.startswith("VmHWM:")
        )
        assert first <= hwm <= first + 4096  # monotone; same counter

    def test_peak_rss_fallback_reads_bytes_on_macos(self, monkeypatch):
        import resource

        def no_proc(*args, **kwargs):
            raise OSError("no /proc here")

        class Usage:
            ru_maxrss = 40 * 1024 * 1024  # bytes, as macOS reports it

        monkeypatch.setattr(scale, "open", no_proc, raising=False)
        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert scale._peak_rss_kb() == 40 * 1024
        monkeypatch.setattr(sys, "platform", "linux")
        assert scale._peak_rss_kb() == 40 * 1024 * 1024


class TestImportDiet:
    """No run imports numpy (``src/`` has no use for it), and sim runs do
    not import asyncio (and ``ssl`` behind it) either."""

    def run_python(self, code: str) -> str:
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-B", "-c", code], check=True, text=True,
            capture_output=True, env={"PYTHONPATH": str(src)},
        ).stdout

    def test_importing_the_sweep_leaves_numpy_and_asyncio_out(self):
        out = self.run_python(
            "import sys; import repro.experiments.scale; "
            "print(sorted(m for m in ('numpy', 'asyncio', 'ssl') "
            "if m in sys.modules))"
        )
        assert out.strip() == "[]"

    def test_no_run_imports_numpy(self):
        out = self.run_python(
            "import sys\n"
            "from repro.experiments.scale import *\n"
            "def loaded(): return sorted(m for m in ('numpy', 'asyncio', 'ssl')"
            " if m in sys.modules)\n"
            "spec = ScheduleSpec('steady', queries=60)\n"
            "config = ScaleConfig(executor='serial', schedules=(spec,))\n"
            "run_schedule(config, spec); print(loaded())\n"
            "burst = ScheduleSpec('burst', queries=32, arrival='burst',"
            " interarrival=20.0, burst_size=8, max_pending=64, vectorized=True)\n"
            "print(run_schedule(config, burst)['dispatched'], loaded())\n"
            "import repro.serve, repro.experiments.cli\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.splitlines() == ["[]", "32 []", "False"]

    def test_wall_clock_and_serve_still_import_asyncio(self):
        out = self.run_python(
            "import sys\n"
            "import repro.sim.clocks as clocks\n"
            "print('asyncio' in sys.modules)\n"
            "clock = clocks.WallClock(0.01); clock.push(0.0, 'arrival', 1)\n"
            "import asyncio; print(asyncio.run(clock.wait_pop())[1:])\n"
            "import repro.serve; print('asyncio' in sys.modules)\n"
        )
        assert out.splitlines() == ["False", "('arrival', 1)", "True"]


@pytest.mark.slow
class TestMidSizeSweep:
    def test_twenty_thousand_query_steady_stream(self):
        spec = ScheduleSpec("steady", queries=20_000, arrival="poisson",
                            interarrival=1.0)
        metrics = run_schedule(
            small_config(executor="process", schedules=(spec,)), spec
        )
        assert metrics["dispatched"] == 20_000
        assert metrics["shed"] == 0
        assert metrics["queries_per_sec"] > 100
        assert metrics["group_formation"]["groups"] > 1_000
