"""Unit tests for the named random streams."""

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
