"""Unit tests for the named random streams."""

import pytest

from repro.sim.random import RandomStreams


class TestStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.get("network") is streams.get("network")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=1)
        a = [streams.get("a").random() for _ in range(5)]
        b = [streams.get("b").random() for _ in range(5)]
        assert a != b

    def test_same_seed_reproduces_sequence(self):
        first = [RandomStreams(seed=3).get("x").random() for _ in range(1)]
        second = [RandomStreams(seed=3).get("x").random() for _ in range(1)]
        assert first == second

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random()
        b = RandomStreams(seed=2).get("x").random()
        assert a != b

    def test_stream_isolation_from_consumption_order(self):
        # Drawing from one stream must not perturb another stream's sequence.
        streams1 = RandomStreams(seed=9)
        _ = [streams1.get("noise").random() for _ in range(100)]
        value_after_noise = streams1.get("signal").random()

        streams2 = RandomStreams(seed=9)
        value_without_noise = streams2.get("signal").random()
        assert value_after_noise == value_without_noise


class TestDistributions:
    def test_normal_respects_floor(self):
        streams = RandomStreams(seed=5)
        samples = [streams.normal("net", mean=0.0, stddev=1.0, floor=0.0) for _ in range(200)]
        assert all(s >= 0.0 for s in samples)

    def test_normal_mean_is_plausible(self):
        streams = RandomStreams(seed=5)
        samples = [streams.normal("net", mean=10.0, stddev=0.5) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        assert 9.8 < mean < 10.2

    def test_uniform_bounds(self):
        streams = RandomStreams(seed=5)
        samples = [streams.uniform("u", 2.0, 3.0) for _ in range(200)]
        assert all(2.0 <= s <= 3.0 for s in samples)

    def test_choice_picks_from_options(self):
        streams = RandomStreams(seed=5)
        options = ["a", "b", "c"]
        picks = {streams.choice("c", options) for _ in range(50)}
        assert picks <= set(options)
        assert len(picks) > 1

    def test_randint_bounds(self):
        streams = RandomStreams(seed=5)
        values = [streams.randint("i", 1, 6) for _ in range(100)]
        assert all(1 <= v <= 6 for v in values)
