"""SHA-256/224 from scratch: FIPS vectors, hashlib oracle, streaming."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha2 import SHA224, SHA256

# FIPS 180-4 / NIST example vectors
VECTORS_256 = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]


class TestVectors:
    @pytest.mark.parametrize("msg,hex_digest", VECTORS_256)
    def test_fips_vectors(self, msg, hex_digest):
        assert SHA256(msg).hexdigest() == hex_digest

    def test_million_a(self):
        h = SHA256()
        for _ in range(1000):
            h.update(b"a" * 1000)
        assert h.hexdigest() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")

    def test_sha224_vector(self):
        assert SHA224(b"abc").hexdigest() == (
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7")


class TestAgainstHashlib:
    @pytest.mark.parametrize("n", [0, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 1000])
    def test_boundary_lengths(self, n):
        data = bytes(range(256)) * (n // 256 + 1)
        data = data[:n]
        assert SHA256(data).digest() == hashlib.sha256(data).digest()
        assert SHA224(data).digest() == hashlib.sha224(data).digest()

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=2048))
    def test_random(self, data):
        assert SHA256(data).digest() == hashlib.sha256(data).digest()


class TestStreaming:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(max_size=200), max_size=8))
    def test_chunked_equals_oneshot(self, chunks):
        h = SHA256()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == hashlib.sha256(b"".join(chunks)).digest()

    def test_digest_does_not_finalize(self):
        h = SHA256(b"part1")
        first = h.digest()
        assert h.digest() == first  # idempotent
        h.update(b"part2")
        assert h.digest() == hashlib.sha256(b"part1part2").digest()

    def test_copy_is_independent(self):
        h = SHA256(b"shared")
        clone = h.copy()
        h.update(b"x")
        assert clone.digest() == hashlib.sha256(b"shared").digest()
        assert h.digest() == hashlib.sha256(b"sharedx").digest()

    def test_update_rejects_str(self):
        with pytest.raises(TypeError):
            SHA256().update("text")  # type: ignore[arg-type]


