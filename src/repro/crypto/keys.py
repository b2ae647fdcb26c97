"""Key (de)serialization and fingerprints.

Keys cross the simulated wire inside XML documents, so the canonical
serialization is a flat dict of hex strings (JSON- and XML-friendly).
Private keys never leave a peer; only :class:`PublicKey` has a wire form.
"""

from __future__ import annotations

import json

from repro.crypto.rsa import KeyPair, PrivateKey, PublicKey
from repro.errors import InvalidKeyError
from repro.utils.encoding import from_hex, to_hex


def public_key_to_text(pub: PublicKey) -> str:
    """Serialize a public key to a compact JSON string."""
    return json.dumps(pub.to_dict(), sort_keys=True, separators=(",", ":"))


def public_key_from_text(text: str) -> PublicKey:
    """Parse a public key serialized by :func:`public_key_to_text`."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise InvalidKeyError(f"public key is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidKeyError("public key JSON must be an object")
    return PublicKey.from_dict(obj)


def private_key_to_dict(priv: PrivateKey) -> dict:
    """Serialize a private key for local keystore persistence only."""
    return {
        "kty": "RSA-private",
        "n": hex(priv.n), "e": hex(priv.e), "d": hex(priv.d),
        "primes": [hex(r) for r in priv.primes],
    }


def private_key_from_dict(obj: dict) -> PrivateKey:
    """Parse :func:`private_key_to_dict` output, recomputing CRT params."""
    try:
        if obj.get("kty") != "RSA-private":
            raise KeyError("kty")
        return PrivateKey(
            n=int(obj["n"], 16), e=int(obj["e"], 16), d=int(obj["d"], 16),
            primes=tuple(int(r, 16) for r in obj["primes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidKeyError(f"malformed private key encoding: {exc!r}") from exc


def keypair_to_dict(kp: KeyPair) -> dict:
    return {"public": kp.public.to_dict(), "private": private_key_to_dict(kp.private)}


def keypair_from_dict(obj: dict) -> KeyPair:
    try:
        pub = PublicKey.from_dict(obj["public"])
        priv = private_key_from_dict(obj["private"])
    except (KeyError, TypeError) as exc:
        raise InvalidKeyError(f"malformed keypair encoding: {exc!r}") from exc
    if priv.public_key() != pub:
        raise InvalidKeyError("public and private halves do not match")
    return KeyPair(public=pub, private=priv)


def fingerprint_hex(pub: PublicKey) -> str:
    """Hex form of the key fingerprint (readable CBID material)."""
    return to_hex(pub.fingerprint())


def fingerprint_from_hex(text: str) -> bytes:
    return from_hex(text)
