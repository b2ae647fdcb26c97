"""The hybrid "wrapped key encryption scheme" E_PKi(x) of the paper.

The paper's notation section defines ``E_PKi(x)`` as encryption of an
arbitrary-length string under peer *i*'s public key "by means of a wrapped
key encryption scheme (such as the one defined in [19] = PKCS#1)".  This is
the classic hybrid envelope:

1. draw a fresh symmetric content-encryption key (CEK),
2. encrypt the payload under the CEK with a symmetric cipher,
3. wrap the CEK under the recipient's RSA public key.

Two symmetric suites are supported, selectable per envelope (ablation A2):

* ``chacha20poly1305`` — authenticated, numpy-accelerated (default),
* ``aes128-cbc`` / ``aes256-cbc`` — the paper-era JCE-style suite.

The envelope is a self-describing dict so it can be embedded in XML or
JSON messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro import obs
from repro.crypto import aead, pkcs1
from repro.crypto.drbg import HmacDrbg, system_drbg
from repro.crypto.modes import CBC
from repro.crypto.rsa import PrivateKey, PublicKey
from repro.errors import DecryptionError
from repro.utils.encoding import b64decode, b64encode

#: suite name -> (CEK length, needs IV/nonce length)
SUITES: dict[str, tuple[int, int]] = {
    "chacha20poly1305": (32, 12),
    "aes128-cbc": (16, 16),
    "aes256-cbc": (32, 16),
}

DEFAULT_SUITE = "chacha20poly1305"

#: RSA key-wrap algorithm names (ablation: OAEP default, v1.5 era-faithful).
WRAP_OAEP = "rsa-oaep"
WRAP_V15 = "rsa-pkcs1v15"

#: length of the per-recipient resumption seed a resumable envelope wraps
#: alongside the CEK (see :mod:`repro.crypto.resume`)
RESUME_SEED_LEN = 16


def _wrap(pub: PublicKey, blob: bytes, wrap: str, rng: HmacDrbg,
          aad: bytes) -> bytes:
    if wrap == WRAP_OAEP:
        return pkcs1.encrypt_oaep(pub, blob, drbg=rng, label=aad)
    if wrap == WRAP_V15:
        return pkcs1.encrypt_v15(pub, blob, drbg=rng)
    raise ValueError(f"unknown key wrap algorithm {wrap!r}")


def _unwrap(priv: PrivateKey, wrapped: bytes, wrap: str, aad: bytes) -> bytes:
    if wrap == WRAP_OAEP:
        return pkcs1.decrypt_oaep(priv, wrapped, label=aad)
    if wrap == WRAP_V15:
        return pkcs1.decrypt_v15(priv, wrapped)
    raise DecryptionError(f"unknown key wrap algorithm {wrap!r}")


def seal(pub: PublicKey, plaintext: bytes, drbg: HmacDrbg | None = None,
         suite: str = DEFAULT_SUITE, wrap: str = WRAP_OAEP,
         aad: bytes = b"") -> dict[str, Any]:
    """Encrypt ``plaintext`` for the holder of ``pub``.

    Returns the envelope as a dict with base64 fields:
    ``{suite, wrap, wrapped_key, nonce, body}``.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown envelope suite {suite!r}")
    registry = obs.get_registry()
    registry.incr("crypto.envelope.seal")
    registry.observe("crypto.envelope.plaintext_bytes", len(plaintext))
    rng = drbg if drbg is not None else system_drbg()
    key_len, nonce_len = SUITES[suite]
    cek = rng.generate(key_len)
    nonce = rng.generate(nonce_len)
    if suite == "chacha20poly1305":
        body = aead.seal(cek, nonce, plaintext, aad=aad)
    else:
        # CBC is unauthenticated; fold the AAD into the wrapped blob instead
        # so tampering with it still breaks unwrapping deterministically.
        body = CBC(cek).encrypt(plaintext, nonce)
    wrapped = _wrap(pub, cek, wrap, rng, aad)
    return {
        "suite": suite,
        "wrap": wrap,
        "wrapped_key": b64encode(wrapped),
        "nonce": b64encode(nonce),
        "body": b64encode(body),
    }


@dataclass(frozen=True)
class MultiSeal:
    """Result of :func:`seal_many`.

    ``seeds`` maps recipient key fingerprints (hex) to the resumption
    seed wrapped for that recipient (empty unless ``seeds`` were given).
    The sender feeds them to a :class:`repro.crypto.resume.SenderResumeCache`.
    """

    envelope: dict[str, Any]
    seeds: dict[str, bytes]


def mint_seeds(pubs: Iterable[PublicKey],
               drbg: HmacDrbg | None = None) -> dict[str, bytes]:
    """Fresh per-recipient resumption seeds, keyed by key fingerprint.

    Minted *before* sealing so the caller can commit to them inside the
    signed document (see :func:`repro.crypto.resume.add_seed_commitments`)
    — a seed a receiver cannot match against a signed commitment must
    never root a session.
    """
    rng = drbg if drbg is not None else system_drbg()
    return {pub.fingerprint().hex(): rng.generate(RESUME_SEED_LEN)
            for pub in pubs}


def seal_many(pubs: Iterable[PublicKey], plaintext: bytes,
              drbg: HmacDrbg | None = None, suite: str = DEFAULT_SUITE,
              wrap: str = WRAP_OAEP, aad: bytes = b"",
              seeds: dict[str, bytes] | None = None) -> MultiSeal:
    """Encrypt ``plaintext`` once for N recipients: one symmetric pass
    under a single CEK, one RSA key-wrap per recipient.

    The envelope replaces ``wrapped_key`` with ``wrapped_keys``, a map of
    recipient key fingerprint (hex) -> base64 wrap of either the CEK or,
    when ``seeds`` holds an entry for that fingerprint, ``CEK || seed``
    (the blob length is self-describing).  Seeds come from
    :func:`mint_seeds`; the caller is responsible for signing a
    commitment to them — the envelope alone cannot authenticate them,
    since anyone holding the CEK can re-wrap a blob of their choosing.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown envelope suite {suite!r}")
    pubs = list(pubs)
    if not pubs:
        raise ValueError("seal_many needs at least one recipient")
    registry = obs.get_registry()
    registry.incr("crypto.envelope.seal_many")
    registry.observe("crypto.envelope.recipients", len(pubs))
    registry.observe("crypto.envelope.plaintext_bytes", len(plaintext))
    rng = drbg if drbg is not None else system_drbg()
    key_len, nonce_len = SUITES[suite]
    cek = rng.generate(key_len)
    nonce = rng.generate(nonce_len)
    if suite == "chacha20poly1305":
        body = aead.seal(cek, nonce, plaintext, aad=aad)
    else:
        body = CBC(cek).encrypt(plaintext, nonce)
    seeds = dict(seeds) if seeds else {}
    wrapped_keys: dict[str, str] = {}
    for pub in pubs:
        fp = pub.fingerprint().hex()
        blob = cek
        if seeds:
            seed = seeds.get(fp)
            if seed is None or len(seed) != RESUME_SEED_LEN:
                raise ValueError(f"no valid resumption seed for recipient {fp}")
            blob = cek + seed
        wrapped_keys[fp] = b64encode(_wrap(pub, blob, wrap, rng, aad))
    envelope = {
        "suite": suite,
        "wrap": wrap,
        "wrapped_keys": wrapped_keys,
        "nonce": b64encode(nonce),
        "body": b64encode(body),
    }
    return MultiSeal(envelope=envelope, seeds=seeds)


@dataclass(frozen=True)
class OpenedEnvelope:
    """Result of :func:`open_detailed`: the plaintext plus the resumption
    seed the sender wrapped for us (``None`` for plain envelopes)."""

    plaintext: bytes
    suite: str
    wrap: str
    resume_seed: bytes | None


def open_(priv: PrivateKey, envelope: dict[str, Any], aad: bytes = b"") -> bytes:
    """Decrypt an envelope produced by :func:`seal` or :func:`seal_many`.

    Raises :class:`DecryptionError` on any malformation, wrong key, or
    authentication failure.
    """
    return open_detailed(priv, envelope, aad=aad).plaintext


def open_detailed(priv: PrivateKey, envelope: dict[str, Any],
                  aad: bytes = b"") -> OpenedEnvelope:
    """Like :func:`open_` but also surfaces the resumption seed, if any.

    Handles both the single-recipient ``wrapped_key`` format and the
    multi-recipient ``wrapped_keys`` map (our own key fingerprint selects
    the entry).
    """
    obs.get_registry().incr("crypto.envelope.open")
    if "resume" in envelope:
        raise DecryptionError(
            "resumed envelope needs a resumption store, not a private key")
    try:
        suite = envelope["suite"]
        wrap = envelope["wrap"]
        if "wrapped_keys" in envelope:
            fp = priv.public_key().fingerprint().hex()
            entry = envelope["wrapped_keys"].get(fp)
            if entry is None:
                raise DecryptionError("envelope is not addressed to this key")
            wrapped = b64decode(entry)
        else:
            wrapped = b64decode(envelope["wrapped_key"])
        nonce = b64decode(envelope["nonce"])
        body = b64decode(envelope["body"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise DecryptionError(f"malformed envelope: {exc!r}") from exc
    if suite not in SUITES:
        raise DecryptionError(f"unknown envelope suite {suite!r}")
    key_len, nonce_len = SUITES[suite]
    if len(nonce) != nonce_len:
        raise DecryptionError("envelope nonce has the wrong length")
    blob = _unwrap(priv, wrapped, wrap, aad)
    if len(blob) == key_len:
        cek, seed = blob, None
    elif len(blob) == key_len + RESUME_SEED_LEN:
        cek, seed = blob[:key_len], blob[key_len:]
    else:
        raise DecryptionError("unwrapped CEK has the wrong length")
    if suite == "chacha20poly1305":
        plaintext = aead.open_(cek, nonce, body, aad=aad)
    else:
        plaintext = CBC(cek).decrypt(body, nonce)
    return OpenedEnvelope(plaintext=plaintext, suite=suite, wrap=wrap,
                          resume_seed=seed)
