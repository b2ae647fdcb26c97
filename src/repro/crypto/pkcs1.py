"""PKCS#1 padding schemes (RFC 8017; the paper cites PKCS#1 v2.0, ref [19]).

Implemented from scratch:

* **EME-PKCS1-v1_5** and **RSAES-OAEP** encryption padding,
* **EMSA-PKCS1-v1_5** and **RSASSA-PSS** signature padding,
* **MGF1** mask generation.

Hash function is our from-scratch SHA-256 throughout.  OAEP/PSS are the
defaults used by the secure primitives; v1.5 is kept for the ablation
benchmarks and for era fidelity (the 2009 JCE stack defaulted to v1.5).
"""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg, system_drbg
from repro.crypto.rsa import PrivateKey, PublicKey
from repro.crypto.sha2 import sha256
from repro.errors import DecryptionError, InvalidSignatureError
from repro.utils.bytesutil import b2i, constant_time_eq, i2b_fixed, xor_bytes

_HLEN = 32  # SHA-256

# DER prefix for a DigestInfo wrapping a SHA-256 digest (RFC 8017 sec 9.2).
_SHA256_DIGESTINFO_PREFIX = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)


def mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function over SHA-256."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha256(seed + i2b_fixed(counter, 4))
        counter += 1
    return bytes(out[:length])


# ---------------------------------------------------------------------------
# Encryption: RSAES-PKCS1-v1_5
# ---------------------------------------------------------------------------

def encrypt_v15(pub: PublicKey, message: bytes, drbg: HmacDrbg | None = None) -> bytes:
    """RSAES-PKCS1-v1_5 encryption of a short message."""
    k = pub.byte_length
    if len(message) > k - 11:
        raise ValueError(f"message too long for RSAES-PKCS1-v1_5 ({len(message)} > {k - 11})")
    rng = drbg if drbg is not None else system_drbg()
    # PS: non-zero random padding bytes, at least 8 of them.
    ps = bytearray()
    while len(ps) < k - len(message) - 3:
        chunk = rng.generate(k)
        ps += bytes(b for b in chunk if b != 0)
    em = b"\x00\x02" + bytes(ps[: k - len(message) - 3]) + b"\x00" + message
    return i2b_fixed(pub.encrypt_int(b2i(em)), k)


def _rsadp(priv: PrivateKey, ciphertext: bytes, k: int) -> bytes:
    """RSADP on a k-byte ciphertext; a representative >= n (for instance
    a ciphertext made for another key) is a decryption error (RFC 8017)."""
    try:
        return i2b_fixed(priv.decrypt_int(b2i(ciphertext)), k)
    except ValueError:
        raise DecryptionError("ciphertext representative out of range") from None


def decrypt_v15(priv: PrivateKey, ciphertext: bytes) -> bytes:
    """RSAES-PKCS1-v1_5 decryption."""
    k = priv.byte_length
    if len(ciphertext) != k:
        raise DecryptionError("ciphertext length does not match the modulus")
    em = _rsadp(priv, ciphertext, k)
    if em[0] != 0 or em[1] != 2:
        raise DecryptionError("invalid PKCS#1 v1.5 encryption block")
    try:
        sep = em.index(0, 2)
    except ValueError:
        raise DecryptionError("missing PKCS#1 v1.5 separator") from None
    if sep < 10:  # at least 8 padding bytes
        raise DecryptionError("PKCS#1 v1.5 padding too short")
    return em[sep + 1:]


# ---------------------------------------------------------------------------
# Encryption: RSAES-OAEP
# ---------------------------------------------------------------------------

def encrypt_oaep(pub: PublicKey, message: bytes, drbg: HmacDrbg | None = None,
                 label: bytes = b"") -> bytes:
    """RSAES-OAEP encryption (SHA-256, MGF1-SHA-256)."""
    k = pub.byte_length
    max_len = k - 2 * _HLEN - 2
    if len(message) > max_len:
        raise ValueError(f"message too long for OAEP ({len(message)} > {max_len})")
    rng = drbg if drbg is not None else system_drbg()
    l_hash = sha256(label)
    ps = b"\x00" * (k - len(message) - 2 * _HLEN - 2)
    db = l_hash + ps + b"\x01" + message
    seed = rng.generate(_HLEN)
    masked_db = xor_bytes(db, mgf1(seed, k - _HLEN - 1))
    masked_seed = xor_bytes(seed, mgf1(masked_db, _HLEN))
    em = b"\x00" + masked_seed + masked_db
    return i2b_fixed(pub.encrypt_int(b2i(em)), k)


def decrypt_oaep(priv: PrivateKey, ciphertext: bytes, label: bytes = b"") -> bytes:
    """RSAES-OAEP decryption."""
    k = priv.byte_length
    if len(ciphertext) != k or k < 2 * _HLEN + 2:
        raise DecryptionError("ciphertext length does not match the modulus")
    em = _rsadp(priv, ciphertext, k)
    y, masked_seed, masked_db = em[0], em[1:1 + _HLEN], em[1 + _HLEN:]
    seed = xor_bytes(masked_seed, mgf1(masked_db, _HLEN))
    db = xor_bytes(masked_db, mgf1(seed, k - _HLEN - 1))
    l_hash = sha256(label)
    ok = y == 0 and constant_time_eq(db[:_HLEN], l_hash)
    rest = db[_HLEN:]
    sep = rest.find(b"\x01")
    if sep == -1 or any(rest[:sep]):
        ok = False
        sep = 0
    if not ok:
        raise DecryptionError("OAEP decoding error")
    return rest[sep + 1:]


# ---------------------------------------------------------------------------
# Signatures: RSASSA-PKCS1-v1_5
# ---------------------------------------------------------------------------

def sign_v15(priv: PrivateKey, message: bytes) -> bytes:
    """RSASSA-PKCS1-v1_5 signature over SHA-256(message)."""
    k = priv.byte_length
    t = _SHA256_DIGESTINFO_PREFIX + sha256(message)
    if k < len(t) + 11:
        raise ValueError("modulus too small for SHA-256 v1.5 signatures")
    em = b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t
    return i2b_fixed(priv.sign_int(b2i(em)), k)


def verify_v15(pub: PublicKey, message: bytes, signature: bytes) -> None:
    """Verify an RSASSA-PKCS1-v1_5 signature; raises on failure."""
    k = pub.byte_length
    if len(signature) != k:
        raise InvalidSignatureError("signature length does not match the modulus")
    try:
        em = i2b_fixed(pub.verify_int(b2i(signature)), k)
    except ValueError as exc:
        raise InvalidSignatureError(str(exc)) from exc
    t = _SHA256_DIGESTINFO_PREFIX + sha256(message)
    expected = b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t
    if not constant_time_eq(em, expected):
        raise InvalidSignatureError("v1.5 signature mismatch")


# ---------------------------------------------------------------------------
# Signatures: RSASSA-PSS
# ---------------------------------------------------------------------------

def sign_pss(priv: PrivateKey, message: bytes, drbg: HmacDrbg | None = None,
             salt_len: int | None = None) -> bytes:
    """RSASSA-PSS signature (SHA-256, MGF1).

    ``salt_len=None`` uses the hash length when the modulus allows it and
    degrades gracefully for small (test-only) moduli, matching common
    library behaviour.
    """
    rng = drbg if drbg is not None else system_drbg()
    em_bits = priv.bits - 1
    em_len = (em_bits + 7) // 8
    if salt_len is None:
        salt_len = min(_HLEN, em_len - _HLEN - 2)
    if salt_len < 0 or em_len < _HLEN + salt_len + 2:
        raise ValueError("modulus too small for the requested PSS salt")
    m_hash = sha256(message)
    salt = rng.generate(salt_len) if salt_len else b""
    h = sha256(b"\x00" * 8 + m_hash + salt)
    ps = b"\x00" * (em_len - salt_len - _HLEN - 2)
    db = ps + b"\x01" + salt
    masked_db = xor_bytes(db, mgf1(h, em_len - _HLEN - 1))
    # Clear the leftmost 8*em_len - em_bits bits.
    first_mask = 0xFF >> (8 * em_len - em_bits)
    masked_db = bytes([masked_db[0] & first_mask]) + masked_db[1:]
    em = masked_db + h + b"\xbc"
    return i2b_fixed(priv.sign_int(b2i(em)), priv.byte_length)


def verify_pss(pub: PublicKey, message: bytes, signature: bytes) -> None:
    """Verify an RSASSA-PSS signature; raises on failure.

    The salt length is recovered from the encoded message (the zero run up
    to the 0x01 separator), so signatures made with any salt length verify.
    """
    k = pub.byte_length
    if len(signature) != k:
        raise InvalidSignatureError("signature length does not match the modulus")
    em_bits = pub.bits - 1
    em_len = (em_bits + 7) // 8
    try:
        em = i2b_fixed(pub.verify_int(b2i(signature)), em_len)
    except (ValueError, OverflowError) as exc:
        raise InvalidSignatureError(str(exc)) from exc
    if em[-1] != 0xBC:
        raise InvalidSignatureError("PSS trailer mismatch")
    masked_db, h = em[: em_len - _HLEN - 1], em[em_len - _HLEN - 1:-1]
    first_mask = 0xFF >> (8 * em_len - em_bits)
    if masked_db[0] & ~first_mask & 0xFF:
        raise InvalidSignatureError("PSS leftmost bits not clear")
    db = xor_bytes(masked_db, mgf1(h, em_len - _HLEN - 1))
    db = bytes([db[0] & first_mask]) + db[1:]
    sep_index = db.find(b"\x01")
    if sep_index == -1 or any(db[:sep_index]):
        raise InvalidSignatureError("PSS DB structure mismatch")
    salt = db[sep_index + 1:]
    m_hash = sha256(message)
    if not constant_time_eq(sha256(b"\x00" * 8 + m_hash + salt), h):
        raise InvalidSignatureError("PSS hash mismatch")
