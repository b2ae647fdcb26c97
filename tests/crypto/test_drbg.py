"""HMAC-DRBG: determinism, independence, draw helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg, system_drbg
from tests.conftest import run_concurrently


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HmacDrbg(b"seed")
        b = HmacDrbg(b"seed")
        assert a.generate(100) == b.generate(100)

    def test_different_seeds_differ(self):
        assert HmacDrbg(b"seed-1").generate(32) != HmacDrbg(b"seed-2").generate(32)

    def test_personalization_separates(self):
        a = HmacDrbg(b"seed", personalization=b"role-a")
        b = HmacDrbg(b"seed", personalization=b"role-b")
        assert a.generate(32) != b.generate(32)

    def test_stream_continuation(self):
        whole = HmacDrbg(b"s").generate(64)
        split = HmacDrbg(b"s")
        assert split.generate(32) + split.generate(32) != whole  # state advances
        # but two identical call sequences match
        x = HmacDrbg(b"s")
        y = HmacDrbg(b"s")
        assert [x.generate(7) for _ in range(5)] == [y.generate(7) for _ in range(5)]


class TestGenerate:
    def test_zero_bytes(self):
        assert HmacDrbg(b"s").generate(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").generate(-1)

    def test_large_request_split_internally(self):
        data = HmacDrbg(b"s").generate(HmacDrbg.MAX_BYTES_PER_REQUEST + 100)
        assert len(data) == HmacDrbg.MAX_BYTES_PER_REQUEST + 100

    def test_additional_input_changes_output(self):
        a = HmacDrbg(b"s").generate(32, additional=b"x")
        b = HmacDrbg(b"s").generate(32)
        assert a != b

    def test_reseed_changes_stream(self):
        a = HmacDrbg(b"s")
        b = HmacDrbg(b"s")
        a.reseed(b"fresh entropy")
        assert a.generate(32) != b.generate(32)


class TestDraws:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1000))
    def test_rand_below_in_range(self, bound):
        rng = HmacDrbg(b"draws")
        for _ in range(10):
            assert 0 <= rng.rand_below(bound) < bound

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=256))
    def test_rand_bits_in_range(self, bits):
        value = HmacDrbg(b"bits").rand_bits(bits)
        assert 0 <= value < (1 << bits)

    def test_rand_range(self):
        rng = HmacDrbg(b"rr")
        for _ in range(20):
            assert 10 <= rng.rand_range(10, 20) < 20

    def test_rand_range_empty_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").rand_range(5, 5)

    def test_uniform_in_unit_interval(self):
        rng = HmacDrbg(b"u")
        values = [rng.uniform() for _ in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.2 < sum(values) / len(values) < 0.8  # crude sanity

    def test_rand_below_covers_small_range(self):
        rng = HmacDrbg(b"cover")
        seen = {rng.rand_below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestFork:
    def test_forks_are_deterministic(self):
        a = HmacDrbg(b"root").fork(b"child")
        b = HmacDrbg(b"root").fork(b"child")
        assert a.generate(32) == b.generate(32)

    def test_forks_independent_of_label(self):
        root = HmacDrbg(b"root")
        a = root.fork(b"a")
        b = root.fork(b"b")
        assert a.generate(32) != b.generate(32)


class TestConcurrency:
    def test_threads_sharing_a_drbg_never_draw_the_same_bytes(self):
        """A node's DRBG is shared by the socket transport's handler
        threads; an unlocked generate hands two of them the same output."""
        rng = HmacDrbg(b"shared")
        draws = 2000
        outputs: list[list[bytes]] = []

        def worker(_i):
            mine = [rng.generate(16) for _ in range(draws)]
            outputs.append(mine)

        assert run_concurrently(worker) == []
        flat = [out for mine in outputs for out in mine]
        assert len(flat) == draws * len(outputs)
        assert len(set(flat)) == len(flat)


def test_system_drbg_differs_each_time():
    assert system_drbg().generate(32) != system_drbg().generate(32)
