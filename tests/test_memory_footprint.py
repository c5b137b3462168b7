"""A sim process holds only what it runs.

The floor: a scale run loads neither OpenSSL's libcrypto (``_hashlib``)
nor the mini engine, and the builtin SHA-256 that replaces OpenSSL in
:class:`~repro.sim.rng.RandomSource` derives the same seeds.  The stream:
``build_stream`` shares each template's tables, ``DSSQuery`` carries no
``__dict__``, and a gate holds the stream's bytes per query.  The draws:
``randint`` and ``choice`` replay ``random.Random`` exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.value import DiscountRates
from repro.experiments.scale import ScaleConfig, ScheduleSpec, build_stream
from repro.sim.rng import RandomSource
from repro.workload.query import DSSQuery

SRC = Path(__file__).resolve().parents[1] / "src"
RATES = DiscountRates(0.05, 0.1)


def run_python(code: str, stdin: str = "") -> str:
    return subprocess.run(
        [sys.executable, "-c", code], check=True, text=True, input=stdin,
        capture_output=True, env={"PYTHONPATH": str(SRC)},
    ).stdout


def reference_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seed_name_pairs() -> list[tuple[int, str]]:
    """1,200 pairs: negative seeds, seeds past 2**64, non-ASCII names."""
    rng = random.Random(20090622)
    alphabet = "abcxyz/_-09 éßλ中文🙂"
    pairs = []
    for index in range(1_200):
        seed = rng.choice((
            rng.randint(-(2**31), 2**31),
            rng.randint(2**64, 2**80),
            -rng.randint(2**64, 2**80),
            index,
        ))
        name = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 12))
        )
        pairs.append((seed, name))
    return pairs


class TestFloor:
    def test_scale_runs_load_no_libcrypto_and_no_engine(self):
        out = run_python(
            "import sys\n"
            "from dataclasses import replace\n"
            "from repro.experiments import scale\n"
            "for spec in scale.DEFAULT_SCHEDULES:\n"
            "    spec = replace(spec, queries=200)\n"
            "    config = scale.ScaleConfig(executor='serial',"
            " schedules=(spec,))\n"
            "    assert scale.run_schedule(config, spec)['dispatched'] > 0\n"
            "print(sorted(m for m in sys.modules if m == '_hashlib'"
            " or m.startswith('repro.engine')))\n"
        )
        assert out.strip() == "[]"

    def test_derive_matches_sha256_reference(self):
        pairs = seed_name_pairs()
        assert any(seed < 0 for seed, _ in pairs)
        assert any(seed > 2**64 for seed, _ in pairs)
        assert any(not name.isascii() for _, name in pairs)
        for seed, name in pairs:
            assert RandomSource(seed)._derive(name) == reference_seed(
                seed, name
            )

    def test_fallback_without_builtin_sha256_derives_the_same(self):
        pairs = seed_name_pairs()
        out = run_python(
            "import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from repro.sim import rng\n"
            "assert rng._sha256 is hashlib.sha256\n"
            "pairs = json.load(sys.stdin)\n"
            "print(json.dumps([rng.RandomSource(seed)._derive(name)"
            " for seed, name in pairs]))\n",
            stdin=json.dumps(pairs),
        )
        assert json.loads(out) == [
            reference_seed(seed, name) for seed, name in pairs
        ]


class TestStream:
    SPEC = ScheduleSpec(
        "steady", queries=4_000, arrival="poisson", interarrival=1.0,
        max_pending=32,
    )

    def test_queries_of_one_template_share_their_tables(self):
        config = ScaleConfig(executor="serial")
        workload = build_stream(config, replace(self.SPEC, queries=100))
        by_template: dict[int, list[DSSQuery]] = {}
        for index, query in enumerate(workload):
            by_template.setdefault(index % config.templates, []).append(query)
        assert len(by_template) == config.templates
        for queries in by_template.values():
            assert len({id(query.tables) for query in queries}) == 1

    def test_stream_allocates_at_most_320_bytes_per_query(self):
        # Parent of the shared-tables, slotted-query change: ~480 B.
        config = ScaleConfig(executor="serial")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workload = build_stream(config, self.SPEC)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(workload) == self.SPEC.queries
        assert held / self.SPEC.queries <= 320


class TestSlottedQuery:
    def query(self) -> DSSQuery:
        return DSSQuery(
            7, "q7", ("t0", "t1"), business_value=2.5, base_work=80.0
        )

    def test_has_no_instance_dict(self):
        assert not hasattr(self.query(), "__dict__")

    def test_equality_and_hash_stay_by_identity(self):
        first, second = self.query(), self.query()
        assert first == first and first != second
        assert len({first, second, first}) == 2

    @pytest.mark.parametrize("copy, changed", [
        (lambda q: replace(q, name="renamed"), {"name": "renamed"}),
        (lambda q: q.with_rates(RATES), {"rates": RATES}),
        (lambda q: q.with_value(4.0), {"business_value": 4.0}),
        (lambda q: pickle.loads(pickle.dumps(q)), {}),
    ])
    def test_copies_round_trip_their_fields(self, copy, changed):
        original = self.query()
        copied = copy(original)
        assert copied is not original and type(copied) is DSSQuery
        fields = {slot: getattr(original, slot) for slot in DSSQuery.__slots__}
        assert {
            slot: getattr(copied, slot) for slot in DSSQuery.__slots__
        } == {**fields, **changed}


class TestDraws:
    """``randint``/``choice`` call ``_randbelow`` directly; the draws and
    the generator state must match ``random.Random``'s own methods."""

    RANGES = [(0, 0), (0, 1), (-3, 3), (5, 5), (0, 2**31 - 1),
              (-(2**70), 2**70), (1, 255), (0, 256)]

    def test_randint_replays_random_random(self):
        source, reference = RandomSource(11, "ga"), random.Random()
        reference.setstate(source.random.getstate())
        for draw in range(10_000):
            low, high = self.RANGES[draw % len(self.RANGES)]
            assert source.randint(low, high) == reference.randint(low, high)
        assert source.random.getstate() == reference.getstate()

    def test_choice_replays_random_random(self):
        source, reference = RandomSource(12, "ga"), random.Random()
        reference.setstate(source.random.getstate())
        sequences = [[1], "ab", tuple(range(7)), list(range(1000)),
                     range(2**40)]
        for draw in range(10_000):
            seq = sequences[draw % len(sequences)]
            assert source.choice(seq) == reference.choice(seq)
        assert source.random.getstate() == reference.getstate()

    def test_empty_inputs_raise_as_before(self):
        source = RandomSource(13)
        with pytest.raises(ValueError):
            source.randint(1, 0)
        with pytest.raises(ValueError):
            source.randint(0, -5)
        with pytest.raises(IndexError):
            source.choice([])
        with pytest.raises(IndexError):
            source.choice("")
