"""Poly1305 one-time MAC: RFC 8439 vectors, oracle check, edge cases."""

import os

import pytest
from cryptography.hazmat.primitives.poly1305 import Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.poly1305 import _CLAMP, _poly_chunks, poly1305_mac


class TestVectors:
    def test_rfc8439_section_2_5_2(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a8"
            "0103808afb0db2fd4abff6af4149f51b")
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag == bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")

    def test_zero_key_zero_message(self):
        # r = 0 clamps to 0, so the tag is just s = 0
        assert poly1305_mac(b"\x00" * 32, b"anything") == b"\x00" * 16

    def test_empty_message(self):
        key = bytes(range(32))
        tag = poly1305_mac(key, b"")
        assert len(tag) == 16
        # with no blocks the accumulator stays 0; tag == s
        assert tag == key[16:]


class TestOracle:
    @pytest.mark.parametrize("length", [*range(301), 4096, 65536 + 3])
    def test_against_cryptography(self, length):
        key, msg = os.urandom(32), os.urandom(length)
        tag = Poly1305.generate_tag(key, msg)
        assert poly1305_mac(key, msg) == tag
        # the per-chunk reference loop, on its own
        r = int.from_bytes(key[:16], "little") & _CLAMP
        s = int.from_bytes(key[16:], "little")
        reference = (_poly_chunks(r, msg) + s) & ((1 << 128) - 1)
        assert reference.to_bytes(16, "little") == tag

    @pytest.mark.parametrize("length", [15, 16, 17, 4096, 65536 + 3])
    def test_all_ones_key_and_message(self, length):
        # the largest clamped r and the largest chunks: the lane bound's
        # worst case
        key, msg = b"\xff" * 32, b"\xff" * length
        assert poly1305_mac(key, msg) == Poly1305.generate_tag(key, msg)


class TestProperties:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            poly1305_mac(b"short", b"msg")

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=500))
    def test_deterministic(self, key, msg):
        assert poly1305_mac(key, msg) == poly1305_mac(key, msg)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=1, max_size=200))
    def test_message_sensitivity(self, key, msg):
        # flipping one bit must change the tag (w.h.p.; r=0 keys excluded)
        if key[:16] == b"\x00" * 16:
            return
        tampered = bytes([msg[0] ^ 1]) + msg[1:]
        assert poly1305_mac(key, msg) != poly1305_mac(key, tampered)

    def test_block_boundary_lengths(self):
        key = bytes(range(32))
        tags = {poly1305_mac(key, b"a" * n) for n in (15, 16, 17, 31, 32, 33)}
        assert len(tags) == 6  # all distinct
