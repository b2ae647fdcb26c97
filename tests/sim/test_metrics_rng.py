"""Metrics registry and deterministic sim randomness."""

from repro.sim import Metrics, SimRandom


class TestMetrics:
    def test_counters(self):
        m = Metrics()
        m.incr("x")
        m.incr("x", 4)
        assert m.count("x") == 5
        assert m.count("missing") == 0


class TestSimRandom:
    def test_deterministic(self):
        a = SimRandom(b"seed")
        b = SimRandom(b"seed")
        assert a.stream("jitter").generate(16) == b.stream("jitter").generate(16)

    def test_streams_independent(self):
        r = SimRandom(b"seed")
        assert r.stream("a").generate(16) != r.stream("b").generate(16)

    def test_str_seed_accepted(self):
        assert SimRandom("seed").uniform() == SimRandom(b"seed").uniform()

    def test_stream_cached(self):
        r = SimRandom(b"seed")
        assert r.stream("x") is r.stream("x")
