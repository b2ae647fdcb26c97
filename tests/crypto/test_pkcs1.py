"""PKCS#1 paddings: roundtrips, oracle interop, malleability rejection."""

import pytest
from cryptography.hazmat.primitives import hashes as chashes
from cryptography.hazmat.primitives.asymmetric import padding as cpad
from cryptography.hazmat.primitives.asymmetric import rsa as crsa
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import pkcs1
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import PrivateKey
from repro.errors import DecryptionError, InvalidSignatureError


def _oracle_public(kp):
    """Our key as the oracle sees it: the public numbers only, because a
    1024-bit key of ours has three primes."""
    return crsa.RSAPublicNumbers(kp.public.e, kp.public.n).public_key()


@pytest.fixture(scope="module")
def oracle_pair():
    """A 2-prime key generated by the oracle, and the same key imported
    into :class:`PrivateKey`, where it runs the one multi-prime CRT path."""
    opriv = crsa.generate_private_key(public_exponent=65537, key_size=1024)
    numbers = opriv.private_numbers()
    ours = PrivateKey(n=numbers.public_numbers.n, e=numbers.public_numbers.e,
                      d=numbers.d, primes=(numbers.p, numbers.q))
    return opriv, ours


class TestMgf1:
    def test_length(self):
        assert len(pkcs1.mgf1(b"seed", 100)) == 100
        assert pkcs1.mgf1(b"seed", 0) == b""

    def test_deterministic_prefix_free(self):
        long = pkcs1.mgf1(b"seed", 100)
        short = pkcs1.mgf1(b"seed", 50)
        assert long[:50] == short


class TestEncryptV15:
    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=53))
    def test_roundtrip(self, message):
        from tests.conftest import cached_keypair
        kp = cached_keypair(512, "a")
        ct = pkcs1.encrypt_v15(kp.public, message, drbg=HmacDrbg(b"r"))
        assert pkcs1.decrypt_v15(kp.private, ct) == message

    def test_interop_decrypt_oracle_ciphertext(self, kp1024, oracle_pair):
        ct = _oracle_public(kp1024).encrypt(b"oracle encrypted", cpad.PKCS1v15())
        assert pkcs1.decrypt_v15(kp1024.private, ct) == b"oracle encrypted"
        opriv, ours = oracle_pair
        ct = opriv.public_key().encrypt(b"to itself", cpad.PKCS1v15())
        assert pkcs1.decrypt_v15(ours, ct) == b"to itself"

    def test_oracle_decrypts_ours(self, oracle_pair):
        opriv, ours = oracle_pair
        ct = pkcs1.encrypt_v15(ours.public_key(), b"ours encrypted")
        assert opriv.decrypt(ct, cpad.PKCS1v15()) == b"ours encrypted"

    def test_too_long_rejected(self, kp512):
        with pytest.raises(ValueError):
            pkcs1.encrypt_v15(kp512.public, b"x" * 54)

    def test_wrong_length_ciphertext(self, kp512):
        with pytest.raises(DecryptionError):
            pkcs1.decrypt_v15(kp512.private, b"x" * 63)

    def test_wrong_key_fails(self, kp512, kp512_b):
        ct = pkcs1.encrypt_v15(kp512.public, b"secret")
        with pytest.raises(DecryptionError):
            pkcs1.decrypt_v15(kp512_b.private, ct)

    def test_out_of_range_ciphertext_fails(self, kp512):
        # >= n: what a ciphertext for a larger modulus often decodes to
        with pytest.raises(DecryptionError):
            pkcs1.decrypt_v15(kp512.private, b"\xff" * kp512.private.byte_length)


class TestEncryptOaep:
    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=62))
    def test_roundtrip(self, message):
        from tests.conftest import cached_keypair
        kp = cached_keypair(1024, "a")
        ct = pkcs1.encrypt_oaep(kp.public, message, drbg=HmacDrbg(b"r"))
        assert pkcs1.decrypt_oaep(kp.private, ct) == message

    def test_label_binding(self, kp1024):
        ct = pkcs1.encrypt_oaep(kp1024.public, b"msg", label=b"context-A")
        assert pkcs1.decrypt_oaep(kp1024.private, ct, label=b"context-A") == b"msg"
        with pytest.raises(DecryptionError):
            pkcs1.decrypt_oaep(kp1024.private, ct, label=b"context-B")

    def test_interop_with_oracle(self, kp1024, oracle_pair):
        opriv, ours = oracle_pair
        oaep = cpad.OAEP(mgf=cpad.MGF1(chashes.SHA256()),
                         algorithm=chashes.SHA256(), label=None)
        ct = _oracle_public(kp1024).encrypt(b"from oracle", oaep)
        assert pkcs1.decrypt_oaep(kp1024.private, ct) == b"from oracle"
        ct = opriv.public_key().encrypt(b"oracle to itself", oaep)
        assert pkcs1.decrypt_oaep(ours, ct) == b"oracle to itself"
        ct2 = pkcs1.encrypt_oaep(ours.public_key(), b"from ours")
        assert opriv.decrypt(ct2, oaep) == b"from ours"

    def test_too_long_rejected(self, kp1024):
        with pytest.raises(ValueError):
            pkcs1.encrypt_oaep(kp1024.public, b"x" * 63)

    def test_randomized(self, kp1024):
        a = pkcs1.encrypt_oaep(kp1024.public, b"same message")
        b = pkcs1.encrypt_oaep(kp1024.public, b"same message")
        assert a != b

    def test_tampered_ciphertext_rejected(self, kp1024):
        ct = bytearray(pkcs1.encrypt_oaep(kp1024.public, b"msg"))
        ct[-1] ^= 1
        with pytest.raises(DecryptionError):
            pkcs1.decrypt_oaep(kp1024.private, bytes(ct))


class TestSignV15:
    def test_roundtrip(self, kp512):
        sig = pkcs1.sign_v15(kp512.private, b"message")
        pkcs1.verify_v15(kp512.public, b"message", sig)

    def test_deterministic(self, kp512):
        assert pkcs1.sign_v15(kp512.private, b"m") == pkcs1.sign_v15(kp512.private, b"m")

    def test_oracle_verifies_ours(self, kp1024):
        sig = pkcs1.sign_v15(kp1024.private, b"interop")
        _oracle_public(kp1024).verify(sig, b"interop", cpad.PKCS1v15(),
                                      chashes.SHA256())

    def test_we_verify_oracle(self, oracle_pair):
        opriv, ours = oracle_pair
        sig = opriv.sign(b"interop", cpad.PKCS1v15(), chashes.SHA256())
        pkcs1.verify_v15(ours.public_key(), b"interop", sig)
        # v1.5 signing is deterministic: the imported key signs alike
        assert pkcs1.sign_v15(ours, b"interop") == sig

    def test_modified_message_rejected(self, kp512):
        sig = pkcs1.sign_v15(kp512.private, b"message")
        with pytest.raises(InvalidSignatureError):
            pkcs1.verify_v15(kp512.public, b"messagE", sig)

    def test_modified_signature_rejected(self, kp512):
        sig = bytearray(pkcs1.sign_v15(kp512.private, b"message"))
        sig[0] ^= 1
        with pytest.raises(InvalidSignatureError):
            pkcs1.verify_v15(kp512.public, b"message", bytes(sig))

    def test_wrong_key_rejected(self, kp512, kp512_b):
        sig = pkcs1.sign_v15(kp512.private, b"message")
        with pytest.raises(InvalidSignatureError):
            pkcs1.verify_v15(kp512_b.public, b"message", sig)

    def test_wrong_length_rejected(self, kp512):
        with pytest.raises(InvalidSignatureError):
            pkcs1.verify_v15(kp512.public, b"message", b"\x01" * 63)


class TestSignPss:
    def test_roundtrip(self, kp512):
        sig = pkcs1.sign_pss(kp512.private, b"message", drbg=HmacDrbg(b"s"))
        pkcs1.verify_pss(kp512.public, b"message", sig)

    def test_randomized(self, kp1024):
        a = pkcs1.sign_pss(kp1024.private, b"m")
        b = pkcs1.sign_pss(kp1024.private, b"m")
        assert a != b
        pkcs1.verify_pss(kp1024.public, b"m", a)
        pkcs1.verify_pss(kp1024.public, b"m", b)

    def test_oracle_verifies_ours(self, kp1024, oracle_pair):
        pss = cpad.PSS(mgf=cpad.MGF1(chashes.SHA256()),
                       salt_length=cpad.PSS.AUTO)
        sig = pkcs1.sign_pss(kp1024.private, b"interop")
        _oracle_public(kp1024).verify(sig, b"interop", pss, chashes.SHA256())
        opriv, ours = oracle_pair
        sig = pkcs1.sign_pss(ours, b"interop")
        opriv.public_key().verify(sig, b"interop", pss, chashes.SHA256())

    def test_we_verify_oracle(self, oracle_pair):
        opriv, ours = oracle_pair
        sig = opriv.sign(b"interop",
                         cpad.PSS(mgf=cpad.MGF1(chashes.SHA256()),
                                  salt_length=32), chashes.SHA256())
        pkcs1.verify_pss(ours.public_key(), b"interop", sig)

    def test_zero_salt_allowed(self, kp512):
        sig = pkcs1.sign_pss(kp512.private, b"m", salt_len=0)
        pkcs1.verify_pss(kp512.public, b"m", sig)

    def test_small_modulus_adapts_salt(self, kp512):
        # 512-bit modulus cannot hold a 32-byte salt; default adapts
        sig = pkcs1.sign_pss(kp512.private, b"m")
        pkcs1.verify_pss(kp512.public, b"m", sig)

    def test_tampered_rejected(self, kp512):
        sig = bytearray(pkcs1.sign_pss(kp512.private, b"m"))
        sig[-1] ^= 1
        with pytest.raises(InvalidSignatureError):
            pkcs1.verify_pss(kp512.public, b"m", bytes(sig))

    def test_wrong_message_rejected(self, kp512):
        sig = pkcs1.sign_pss(kp512.private, b"m")
        with pytest.raises(InvalidSignatureError):
            pkcs1.verify_pss(kp512.public, b"other", sig)

    def test_oversized_salt_rejected(self, kp512):
        with pytest.raises(ValueError):
            pkcs1.sign_pss(kp512.private, b"m", salt_len=64)
