"""RSA keys and the raw trapdoor permutation."""

from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import (
    PUBLIC_EXPONENT,
    PrivateKey,
    PublicKey,
    generate_keypair,
    prime_sizes,
)
from repro.errors import InvalidKeyError
from tests.conftest import cached_keypair


class TestKeyGeneration:
    def test_deterministic_from_seed(self):
        a = generate_keypair(512, HmacDrbg(b"same-seed"))
        b = generate_keypair(512, HmacDrbg(b"same-seed"))
        assert a.public == b.public
        assert a.private.d == b.private.d

    def test_different_seeds_different_keys(self):
        a = generate_keypair(512, HmacDrbg(b"seed-x"))
        b = generate_keypair(512, HmacDrbg(b"seed-y"))
        assert a.public != b.public

    @pytest.mark.parametrize("bits", [512, 768, 1024])
    def test_modulus_bit_length_exact(self, bits):
        kp = cached_keypair(bits, "a") if bits in (512, 1024) else generate_keypair(
            bits, HmacDrbg(b"bits-%d" % bits))
        assert kp.public.bits == bits
        assert kp.bits == bits

    def test_unsupported_size_rejected(self):
        with pytest.raises(InvalidKeyError):
            generate_keypair(600, HmacDrbg(b"x"))

    def test_key_structure(self, kp512):
        priv = kp512.private
        assert len(priv.primes) == 2
        assert prod(priv.primes) == priv.n
        assert priv.e == PUBLIC_EXPONENT
        # d is a working inverse of e modulo lambda(n)
        lam = lcm(*(r - 1 for r in priv.primes))
        assert (priv.e * priv.d) % lam == 1

    def test_crt_parameters_derived(self, kp512, kp1024):
        for priv in (kp512.private, kp1024.private):
            primes = priv.primes
            assert priv.exponents == tuple(priv.d % (r - 1) for r in primes)
            assert len(priv.coefficients) == len(primes) - 1
            for i, t in enumerate(priv.coefficients):
                assert prod(primes[:i + 1]) * t % primes[i + 1] == 1

    def test_three_primes_from_1024_bits(self):
        seed = b"three-primes"
        kp = generate_keypair(1024, HmacDrbg(seed))
        priv = kp.private
        assert len(priv.primes) == 3
        assert len(set(priv.primes)) == 3
        assert prod(priv.primes) == priv.n
        assert priv.n.bit_length() == 1024
        assert sorted(r.bit_length() for r in priv.primes) == [341, 341, 342]
        lam = lcm(*(r - 1 for r in priv.primes))
        assert (priv.e * priv.d) % lam == 1
        assert generate_keypair(1024, HmacDrbg(seed)) == kp

    @pytest.mark.parametrize("bits,sizes", [
        (512, (256, 256)), (768, (384, 384)), (1024, (341, 341, 342)),
        (2048, (682, 682, 684)), (4096, (1365, 1365, 1366)),
    ])
    def test_prime_sizes(self, bits, sizes):
        assert prime_sizes(bits) == sizes
        assert sum(sizes) == bits

    def test_primes_must_multiply_to_modulus(self, kp512):
        priv = kp512.private
        with pytest.raises(InvalidKeyError):
            PrivateKey(n=priv.n + 2, e=priv.e, d=priv.d, primes=priv.primes)
        with pytest.raises(InvalidKeyError):
            PrivateKey(n=priv.n, e=priv.e, d=priv.d, primes=(priv.n,))

    def test_repeated_prime_rejected(self):
        r = 1_000_003
        with pytest.raises(InvalidKeyError):
            PrivateKey(n=r * r * 999_983, e=PUBLIC_EXPONENT, d=1,
                       primes=(r, r, 999_983))


class TestRawOperations:
    def test_encrypt_decrypt_inverse(self, kp512):
        m = 0x1234567890ABCDEF
        c = kp512.public.encrypt_int(m)
        assert kp512.private.decrypt_int(c) == m

    def test_sign_verify_inverse(self, kp512):
        m = 98765432123456789
        s = kp512.private.sign_int(m)
        assert kp512.public.verify_int(s) == m

    def test_crt_matches_plain_exponentiation(self, kp512):
        priv = kp512.private
        c = 0xDEADBEEF
        assert priv.decrypt_int(c) == pow(c, priv.d, priv.n)

    @pytest.mark.parametrize("bits,count", [(512, 2), (1024, 3), (2048, 3)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_crt_matches_private_exponent(self, bits, count, data):
        priv = cached_keypair(bits, "a").private
        assert len(priv.primes) == count
        c = data.draw(st.integers(min_value=0, max_value=priv.n - 1))
        assert priv.decrypt_int(c) == pow(c, priv.d, priv.n)
        assert priv.sign_int(c) == priv.decrypt_int(c)

    def test_out_of_range_rejected(self, kp512):
        with pytest.raises(ValueError):
            kp512.public.encrypt_int(kp512.public.n)
        with pytest.raises(ValueError):
            kp512.private.decrypt_int(-1)


class TestSerialization:
    def test_public_key_dict_roundtrip(self, kp512):
        restored = PublicKey.from_dict(kp512.public.to_dict())
        assert restored == kp512.public

    def test_malformed_dict_rejected(self):
        with pytest.raises(InvalidKeyError):
            PublicKey.from_dict({"kty": "EC", "n": "0x5", "e": "0x3"})
        with pytest.raises(InvalidKeyError):
            PublicKey.from_dict({"kty": "RSA"})
        with pytest.raises(InvalidKeyError):
            PublicKey.from_dict({"kty": "RSA", "n": "not-hex", "e": "0x3"})


class TestFingerprint:
    def test_stable(self, kp512):
        assert kp512.public.fingerprint() == kp512.public.fingerprint()
        assert len(kp512.public.fingerprint()) == 32

    def test_distinct_keys_distinct_fingerprints(self, kp512, kp512_b):
        assert kp512.public.fingerprint() != kp512_b.public.fingerprint()

    def test_byte_length(self, kp512, kp1024):
        assert kp512.public.byte_length == 64
        assert kp1024.public.byte_length == 128


class TestPublicKeyFromPrivate:
    def test_matches(self, kp512):
        assert kp512.private.public_key() == kp512.public
