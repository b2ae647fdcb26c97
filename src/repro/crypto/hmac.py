"""HMAC (RFC 2104, ref [13] of the paper) over our SHA-256.

Used by the TLS-style baseline transport for record integrity and by the
HMAC-DRBG deterministic random generator.

Two paths, both tested against :mod:`hmac`/:mod:`hashlib`:

* :class:`HMAC` — streaming, built on the pure-Python :class:`SHA256`;
* :func:`hmac_sha256` — one-shot, expressed as two one-shot hashes so it
  rides :func:`repro.crypto.sha2.sha256`, which is :mod:`hashlib` (this
  is the hot path: the DRBG calls it for every random draw).
"""

from __future__ import annotations

from repro.crypto.sha2 import SHA256, sha256
from repro.utils.bytesutil import constant_time_eq, xor_bytes

_BLOCK = 64
_OPAD = b"\x5c" * _BLOCK
_IPAD = b"\x36" * _BLOCK


def _normalize_key(key: bytes) -> bytes:
    if len(key) > _BLOCK:
        key = sha256(key)
    return key.ljust(_BLOCK, b"\x00")


class HMAC:
    """Streaming HMAC-SHA256 (pure-Python reference path)."""

    digest_size = 32

    def __init__(self, key: bytes, data: bytes = b"") -> None:
        key = _normalize_key(key)
        self._okey = xor_bytes(key, _OPAD)
        self._inner = SHA256(xor_bytes(key, _IPAD))
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def copy(self) -> "HMAC":
        clone = self.__class__.__new__(self.__class__)
        clone._okey = self._okey
        clone._inner = self._inner.copy()
        return clone

    def digest(self) -> bytes:
        return SHA256(self._okey + self._inner.digest()).digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA256 (backend-accelerated)."""
    key = _normalize_key(key)
    return sha256(xor_bytes(key, _OPAD) + sha256(xor_bytes(key, _IPAD) + data))


def verify_hmac(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time HMAC verification."""
    return constant_time_eq(hmac_sha256(key, data), tag)
