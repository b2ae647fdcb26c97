"""ChaCha20: RFC 8439 vectors, lane/row/block equivalence, oracle check."""

import os

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha20 import (
    LANES_MAX_BLOCKS, _keystream_lanes, _keystream_rows, chacha20_block,
    chacha20_xor, keystream)

KEY = bytes(range(32))
NONCE = bytes.fromhex("000000090000004a00000000")


class TestBlockFunction:
    def test_rfc8439_block_vector(self):
        # RFC 8439 section 2.3.2
        block = chacha20_block(KEY, 1, NONCE)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e")
        assert block == expected

    def test_rfc8439_encryption_vector(self):
        # RFC 8439 section 2.4.2
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (b"Ladies and Gentlemen of the class of '99: If I could "
                     b"offer you only one tip for the future, sunscreen would be it.")
        ct = chacha20_xor(key, nonce, plaintext, counter=1)
        assert ct[:16] == bytes.fromhex("6e2e359a2568f98041ba0728dd0d6981")
        assert chacha20_xor(key, nonce, ct, counter=1) == plaintext

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 0, NONCE)
        with pytest.raises(ValueError):
            keystream(b"short", 0, NONCE, 1)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            chacha20_block(KEY, 0, b"short")
        with pytest.raises(ValueError):
            keystream(KEY, 0, b"short", 1)


def _blocks(counter: int, n_blocks: int, nonce: bytes = NONCE) -> bytes:
    """The RFC block function, one block at a time: the reference."""
    return b"".join(chacha20_block(KEY, counter + i, nonce)
                    for i in range(n_blocks))


def _xor_with(kernel, data: bytes, counter: int = 1,
              nonce: bytes = NONCE) -> bytes:
    """``data`` XOR the keystream one kernel produces from ``counter``."""
    stream = kernel(KEY, counter, nonce, (len(data) + 63) // 64)
    return bytes(a ^ b for a, b in zip(data, stream))


class TestScalarNumpyEquivalence:
    """The bigint-lane kernel against the numpy row kernel."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 256, 1000, 4096,
                                   64 * LANES_MAX_BLOCKS,
                                   64 * LANES_MAX_BLOCKS + 1])
    def test_paths_agree(self, n):
        data = os.urandom(n)
        nonce = os.urandom(12)
        scalar = _xor_with(_keystream_lanes, data, nonce=nonce)
        vector = _xor_with(_keystream_rows, data, nonce=nonce)
        assert scalar == vector
        reference = _blocks(1, (n + 63) // 64, nonce)
        assert scalar == bytes(a ^ b for a, b in zip(data, reference))
        assert chacha20_xor(KEY, nonce, data) == scalar

    @pytest.mark.parametrize("counter", [0, 7, 2**32 - 3])
    def test_every_batch_size_matches_block_function(self, counter):
        # 2**32 - 3: the counter wraps inside one batch from n = 4 on
        # the dispatch runs the lanes up to LANES_MAX_BLOCKS, the rows after
        reference = _blocks(counter, LANES_MAX_BLOCKS + 1)
        for n in range(1, LANES_MAX_BLOCKS + 2):
            assert keystream(KEY, counter, NONCE, n) == reference[:64 * n], n
        # and each kernel on the other side of the dispatch threshold
        assert _keystream_lanes(KEY, counter, NONCE,
                                LANES_MAX_BLOCKS + 1) == reference
        assert _keystream_rows(KEY, counter, NONCE, 1) == reference[:64]

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=2000), st.integers(min_value=0, max_value=2**31))
    def test_paths_agree_property(self, data, counter):
        scalar = _xor_with(_keystream_lanes, data, counter=counter)
        vector = _xor_with(_keystream_rows, data, counter=counter)
        assert scalar == vector


def _check_against_cryptography(size: int) -> None:
    key = os.urandom(32)
    nonce = os.urandom(12)
    data = os.urandom(size)
    # cryptography's ChaCha20 takes a 16-byte nonce: counter || nonce
    full = (1).to_bytes(4, "little") + nonce
    enc = Cipher(algorithms.ChaCha20(key, full), mode=None).encryptor()
    assert chacha20_xor(key, nonce, data, counter=1) == enc.update(data)


class TestOracle:
    def test_against_cryptography(self):
        _check_against_cryptography(555)

    def test_against_cryptography_past_lane_limit(self):
        # long enough that the numpy row kernel, not the lanes, runs
        _check_against_cryptography(64 * LANES_MAX_BLOCKS + 555)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=1000))
    def test_involution(self, data):
        assert chacha20_xor(KEY, NONCE, chacha20_xor(KEY, NONCE, data)) == data

    def test_empty_input(self):
        assert chacha20_xor(KEY, NONCE, b"") == b""

    def test_counter_separates_streams(self):
        data = b"\x00" * 64
        assert chacha20_xor(KEY, NONCE, data, counter=1) != chacha20_xor(
            KEY, NONCE, data, counter=2)

    def test_counter_wraps_32bit(self):
        # both kernels mask the counter to 32 bits and must agree
        data = b"\x00" * 130
        hi = 0xFFFFFFFF
        assert _xor_with(_keystream_lanes, data, counter=hi) == \
            _xor_with(_keystream_rows, data, counter=hi)
