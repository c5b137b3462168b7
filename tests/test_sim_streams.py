"""Unit and property tests: random variate streams."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.rng import RandomSource
from repro.sim.streams import DeterministicStream, ExponentialStream


def make_source(seed=1):
    return RandomSource(seed, "streams")


class TestValidation:
    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ConfigError):
            ExponentialStream(0.0, make_source())

    def test_deterministic_rejects_negative(self):
        with pytest.raises(ConfigError):
            DeterministicStream(-1.0)


class TestDistributions:
    def test_exponential_mean_converges(self):
        stream = ExponentialStream(4.0, make_source())
        samples = [stream.sample() for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(4.0, rel=0.05)

    def test_deterministic_is_constant(self):
        stream = DeterministicStream(2.5)
        assert [stream.sample() for _ in range(5)] == [2.5] * 5

    def test_count_tracks_draws(self):
        stream = ExponentialStream(1.0, make_source())
        for _ in range(7):
            stream.sample()
        assert stream.count == 7

    def test_iteration_protocol(self):
        stream = DeterministicStream(1.0)
        iterator = iter(stream)
        assert [next(iterator) for _ in range(3)] == [1.0, 1.0, 1.0]


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        a = ExponentialStream(2.0, RandomSource(9, "x"))
        b = ExponentialStream(2.0, RandomSource(9, "x"))
        assert [a.sample() for _ in range(10)] == [b.sample() for _ in range(10)]

    def test_different_substreams_are_independent(self):
        root = RandomSource(9)
        a = ExponentialStream(2.0, root.spawn("a"))
        b = ExponentialStream(2.0, root.spawn("b"))
        assert [a.sample() for _ in range(5)] != [b.sample() for _ in range(5)]

    def test_spawn_is_cached(self):
        root = RandomSource(1)
        assert root.spawn("child") is root.spawn("child")

    def test_adding_stream_does_not_perturb_existing(self):
        root1 = RandomSource(4)
        a1 = ExponentialStream(1.0, root1.spawn("a"))
        first = [a1.sample() for _ in range(5)]

        root2 = RandomSource(4)
        _extra = ExponentialStream(1.0, root2.spawn("zzz"))
        a2 = ExponentialStream(1.0, root2.spawn("a"))
        assert [a2.sample() for _ in range(5)] == first


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=0.01, max_value=1000.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_exponential_samples_are_nonnegative_and_finite(mean, seed):
    stream = ExponentialStream(mean, RandomSource(seed, "prop"))
    for _ in range(20):
        value = stream.sample()
        assert value >= 0.0
        assert math.isfinite(value)
