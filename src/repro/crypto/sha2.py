"""SHA-256 / SHA-224 implemented from scratch (FIPS 180-4).

The test suite cross-checks this implementation against :mod:`hashlib` on
random inputs; the one-shot :func:`sha256` / :func:`sha224` the rest of
the package calls use :mod:`hashlib` itself.

The implementation follows the spec directly: message schedule expansion,
64-round compression over eight 32-bit working variables.  It is a streaming
implementation (``update``/``digest``) so large payloads are hashed without
building the padded message in memory.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF

# FIPS 180-4 section 4.2.2: first 32 bits of the fractional parts of the cube
# roots of the first 64 primes.
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_H256 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_H224 = (
    0xC1059ED8, 0x367CD507, 0x3070DD17, 0xF70E5939,
    0xFFC00B31, 0x68581511, 0x64F98FA7, 0xBEFA4FA4,
)


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK32


class SHA256:
    """Streaming SHA-256 with the familiar ``update``/``digest`` interface."""

    digest_size = 32
    block_size = 64
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_H256)
        self._buffer = b""
        self._length = 0  # total message length in bytes
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("SHA256.update requires bytes-like input")
        data = bytes(data)
        self._length += len(data)
        buf = self._buffer + data
        n_blocks = len(buf) // 64
        for i in range(n_blocks):
            self._compress(buf[i * 64:(i + 1) * 64])
        self._buffer = buf[n_blocks * 64:]

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = self._h
        for t in range(64):
            t1 = (h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25))
                  + ((e & f) ^ (~e & g)) + _K[t] + w[t]) & _MASK32
            t2 = ((_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22))
                  + ((a & b) ^ (a & c) ^ (b & c))) & _MASK32
            h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _MASK32, c, b, a, (t1 + t2) & _MASK32
        self._h = [(v + n) & _MASK32 for v, n in zip(self._h, (a, b, c, d, e, f, g, h))]

    def copy(self) -> "SHA256":
        clone = self.__class__.__new__(self.__class__)
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        # Pad a copy so the object can keep streaming after digest().
        clone = self.copy()
        bit_length = clone._length * 8
        pad = b"\x80" + b"\x00" * ((55 - clone._length) % 64)
        clone.update(pad + struct.pack(">Q", bit_length))
        assert not clone._buffer
        return struct.pack(">8I", *clone._h)[: self.digest_size]

    def hexdigest(self) -> str:
        return self.digest().hex()


class SHA224(SHA256):
    """SHA-224: SHA-256 with different IV, truncated to 28 bytes."""

    digest_size = 28
    name = "sha224"

    def __init__(self, data: bytes = b"") -> None:
        super().__init__()
        self._h = list(_H224)
        if data:
            self.update(data)


# ---------------------------------------------------------------------------
# One-shot API.
#
# The pure-Python implementation above is the *reference*: the test suite
# proves it bit-identical to hashlib on random and structured inputs.  The
# one-shot functions below call the verified-equivalent hashlib because
# profiling showed SHA-256 dominating every protocol path (HMAC-DRBG,
# MGF1, digests).
# ---------------------------------------------------------------------------

import hashlib as _hashlib


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest (hashlib; see the note above)."""
    return _hashlib.sha256(data).digest()


def sha224(data: bytes) -> bytes:
    """One-shot SHA-224 digest (hashlib; see the note above)."""
    return _hashlib.sha224(data).digest()
