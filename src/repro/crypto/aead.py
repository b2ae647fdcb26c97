"""ChaCha20-Poly1305 AEAD (RFC 8439 section 2.8).

This is the authenticated symmetric layer used inside the hybrid envelope:
confidentiality from ChaCha20, integrity from Poly1305 over the AAD and
ciphertext.  AES-CBC (unauthenticated, paper-era) remains available via
:mod:`repro.crypto.modes` for fidelity comparisons.

A message of up to ``64 * (LANES_MAX_BLOCKS - 1)`` bytes (~14 KiB) seals
and opens on Python ints and bytes alone; only a larger one takes the
ChaCha20 row kernel, which loads numpy on its first call (see
:mod:`repro.crypto.chacha20`).  Poly1305 never needs numpy.
"""

from __future__ import annotations

import struct

from repro.crypto.chacha20 import keystream, xor_stream
from repro.crypto.poly1305 import poly1305_mac
from repro.errors import InvalidTagError
from repro.utils.bytesutil import constant_time_eq

TAG_SIZE = 16
KEY_SIZE = 32
NONCE_SIZE = 12


def _pad16(data: bytes) -> bytes:
    return b"\x00" * (-len(data) % 16)


def _auth_input(aad: bytes, ciphertext: bytes) -> bytes:
    return (aad + _pad16(aad) + ciphertext + _pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext)))


def _otk_and_xor(key: bytes, nonce: bytes, data: bytes) -> tuple[bytes, bytes]:
    """The Poly1305 one-time key plus ``data`` XOR keystream(counter=1..).

    Block 0 (the OTK) and the message blocks come from **one** keystream
    call, so the batched kernel amortizes the block function over the
    whole operation.
    """
    n_blocks = (len(data) + 63) // 64
    stream = keystream(key, 0, nonce, n_blocks + 1)
    return stream[:32], xor_stream(data, stream, 64)


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate; returns ``ciphertext || tag``."""
    otk, ciphertext = _otk_and_xor(key, nonce, plaintext)
    tag = poly1305_mac(otk, _auth_input(aad, ciphertext))
    return ciphertext + tag


def open_(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify the tag and decrypt; raises :class:`InvalidTagError` on failure."""
    if len(sealed) < TAG_SIZE:
        raise InvalidTagError("sealed message shorter than the tag")
    ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
    otk, plaintext = _otk_and_xor(key, nonce, ciphertext)
    expected = poly1305_mac(otk, _auth_input(aad, ciphertext))
    if not constant_time_eq(expected, tag):
        raise InvalidTagError("Poly1305 tag mismatch")
    return plaintext
