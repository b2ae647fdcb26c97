"""ChaCha20-Poly1305 AEAD: RFC vector, oracle, tamper rejection."""

import os

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aead
from repro.crypto.chacha20 import LANES_MAX_BLOCKS
from repro.errors import InvalidTagError

KEY = bytes(range(0x80, 0xA0))
NONCE = bytes.fromhex("070000004041424344454647")


class TestRfc8439Vector:
    PLAINTEXT = (b"Ladies and Gentlemen of the class of '99: If I could offer "
                 b"you only one tip for the future, sunscreen would be it.")
    AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")

    def test_seal_matches_rfc(self):
        sealed = aead.seal(KEY, NONCE, self.PLAINTEXT, self.AAD)
        assert sealed[-16:] == bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")

    def test_open_roundtrip(self):
        sealed = aead.seal(KEY, NONCE, self.PLAINTEXT, self.AAD)
        assert aead.open_(KEY, NONCE, sealed, self.AAD) == self.PLAINTEXT


class TestOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.binary(max_size=500), st.binary(max_size=50))
    def test_against_cryptography(self, plaintext, aad):
        key = os.urandom(32)
        nonce = os.urandom(12)
        theirs = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        ours = aead.seal(key, nonce, plaintext, aad)
        assert ours == theirs
        assert aead.open_(key, nonce, theirs, aad) == plaintext

    # One keystream call covers the one-time-key block plus the message,
    # so LANES_MAX_BLOCKS - 1 message blocks is the last size on the
    # bigint-lane kernel and one byte more the first on the row kernel.
    @pytest.mark.parametrize("size", [
        0, 1, 256, 64 * (LANES_MAX_BLOCKS - 1),
        64 * (LANES_MAX_BLOCKS - 1) + 1, 65536 + 3])
    def test_against_cryptography_across_the_crossover(self, size):
        key, nonce = os.urandom(32), os.urandom(12)
        plaintext, aad = os.urandom(size), os.urandom(13)
        theirs = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        assert aead.seal(key, nonce, plaintext, aad) == theirs
        assert aead.open_(key, nonce, theirs, aad) == plaintext
        tampered = bytearray(theirs)
        tampered[len(tampered) // 2] ^= 0x10
        with pytest.raises(InvalidTagError):
            aead.open_(key, nonce, bytes(tampered), aad)


class TestTamperRejection:
    def _sealed(self):
        return aead.seal(KEY, NONCE, b"attack at dawn", b"header")

    def test_flipped_ciphertext_bit(self):
        sealed = bytearray(self._sealed())
        sealed[0] ^= 1
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, bytes(sealed), b"header")

    def test_flipped_tag_bit(self):
        sealed = bytearray(self._sealed())
        sealed[-1] ^= 1
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, bytes(sealed), b"header")

    def test_wrong_aad(self):
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, self._sealed(), b"other-header")

    def test_wrong_key(self):
        with pytest.raises(InvalidTagError):
            aead.open_(bytes(32), NONCE, self._sealed(), b"header")

    def test_wrong_nonce(self):
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, bytes(12), self._sealed(), b"header")

    def test_truncated_rejected(self):
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, b"\x01" * 10, b"")


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=300), st.binary(max_size=30))
    def test_roundtrip(self, plaintext, aad):
        sealed = aead.seal(KEY, NONCE, plaintext, aad)
        assert len(sealed) == len(plaintext) + aead.TAG_SIZE
        assert aead.open_(KEY, NONCE, sealed, aad) == plaintext

    def test_empty_plaintext(self):
        sealed = aead.seal(KEY, NONCE, b"", b"aad")
        assert len(sealed) == aead.TAG_SIZE
        assert aead.open_(KEY, NONCE, sealed, b"aad") == b""
