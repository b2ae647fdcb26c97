"""Key serialization."""

import pytest

from repro.crypto import keys as keymod
from repro.crypto.rsa import KeyPair
from repro.errors import InvalidKeyError


class TestPublicKeyText:
    def test_roundtrip(self, kp512):
        text = keymod.public_key_to_text(kp512.public)
        assert keymod.public_key_from_text(text) == kp512.public

    def test_compact_json(self, kp512):
        text = keymod.public_key_to_text(kp512.public)
        assert "\n" not in text and " " not in text

    def test_not_json_rejected(self):
        with pytest.raises(InvalidKeyError):
            keymod.public_key_from_text("not json at all")

    def test_non_object_rejected(self):
        with pytest.raises(InvalidKeyError):
            keymod.public_key_from_text("[1,2,3]")


class TestPrivateKeyDict:
    def test_roundtrip_recomputes_crt(self, kp512, kp1024):
        for priv in (kp512.private, kp1024.private):  # 2 and 3 primes
            data = keymod.private_key_to_dict(priv)
            assert len(data["primes"]) == len(priv.primes)
            restored = keymod.private_key_from_dict(data)
            assert restored == priv
            assert restored.primes == priv.primes
            assert restored.exponents == priv.exponents
            assert restored.coefficients == priv.coefficients

    def test_primes_not_matching_modulus_rejected(self, kp1024):
        data = keymod.private_key_to_dict(kp1024.private)
        data["primes"] = data["primes"][:2]
        with pytest.raises(InvalidKeyError):
            keymod.private_key_from_dict(data)

    def test_wrong_kty_rejected(self, kp512):
        data = keymod.private_key_to_dict(kp512.private)
        data["kty"] = "RSA"
        with pytest.raises(InvalidKeyError):
            keymod.private_key_from_dict(data)

    def test_missing_field_rejected(self, kp512):
        data = keymod.private_key_to_dict(kp512.private)
        del data["primes"]
        with pytest.raises(InvalidKeyError):
            keymod.private_key_from_dict(data)


class TestKeypairDict:
    def test_roundtrip(self, kp512):
        restored = keymod.keypair_from_dict(keymod.keypair_to_dict(kp512))
        assert restored == kp512

    def test_mismatched_halves_rejected(self, kp512, kp512_b):
        data = keymod.keypair_to_dict(
            KeyPair(public=kp512_b.public, private=kp512.private))
        with pytest.raises(InvalidKeyError):
            keymod.keypair_from_dict(data)


class TestFingerprints:
    def test_hex_roundtrip(self, kp512):
        text = keymod.fingerprint_hex(kp512.public)
        assert keymod.fingerprint_from_hex(text) == kp512.public.fingerprint()
