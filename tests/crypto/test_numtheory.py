"""Number theory behind RSA: egcd, inverses, Miller-Rabin, CRT."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.numtheory import (
    crt_coefficients,
    crt_combine,
    egcd,
    generate_prime,
    is_probable_prime,
    lcm,
    modinv,
)

_RNG = HmacDrbg(b"numtheory-tests")


class TestEgcd:
    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=10**9))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g

    def test_zero_cases(self):
        assert egcd(0, 5)[0] == 5
        assert egcd(5, 0)[0] == 5


class TestModinv:
    @given(st.integers(min_value=2, max_value=10**6))
    def test_inverse_property(self, m):
        # pick an a coprime to m
        a = 1
        for candidate in range(2, 50):
            if math.gcd(candidate, m) == 1:
                a = candidate
                break
        inv = modinv(a, m)
        assert (a * inv) % m == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_negative_input_normalized(self):
        assert modinv(-3, 7) == modinv(4, 7)


KNOWN_PRIMES = [2, 3, 5, 7, 541, 7919, 104729,
                2**31 - 1,  # Mersenne
                (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 4, 9, 15, 341,  # 341 = 11*31, base-2 pseudoprime
                    561,  # Carmichael
                    1105, 2821, 6601, 2**31, 7919 * 104729]


class TestMillerRabin:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_accepts_primes(self, p):
        assert is_probable_prime(p, _RNG.rand_below)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_rejects_composites(self, n):
        assert not is_probable_prime(n, _RNG.rand_below)

    def test_rejects_negatives_and_small(self):
        assert not is_probable_prime(0, _RNG.rand_below)
        assert not is_probable_prime(-7, _RNG.rand_below)

    def test_carmichael_numbers_rejected(self):
        # Fermat-fooling numbers that Miller-Rabin must still catch
        for n in (561, 41041, 825265):
            assert not is_probable_prime(n, _RNG.rand_below)


class TestGeneratePrime:
    @pytest.mark.parametrize("bits", [16, 32, 64, 128])
    def test_exact_bit_length(self, bits):
        rng = HmacDrbg(b"prime-%d" % bits)
        p = generate_prime(bits, rng.rand_bits, rng.rand_below)
        assert p.bit_length() == bits
        assert p % 2 == 1
        assert is_probable_prime(p, rng.rand_below)

    def test_top_two_bits_set(self):
        rng = HmacDrbg(b"topbits")
        p = generate_prime(64, rng.rand_bits, rng.rand_below)
        assert (p >> 62) == 0b11

    def test_too_small_rejected(self):
        rng = HmacDrbg(b"small")
        with pytest.raises(ValueError):
            generate_prime(4, rng.rand_bits, rng.rand_below)

    def test_deterministic_given_rng(self):
        a = HmacDrbg(b"det")
        b = HmacDrbg(b"det")
        assert (generate_prime(48, a.rand_bits, a.rand_below)
                == generate_prime(48, b.rand_bits, b.rand_below))


class TestCrt:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**12))
    def test_recombination(self, m):
        p, q = 1_000_003, 999_983  # distinct primes
        m = m % (p * q)
        (coefficient,) = crt_coefficients((q, p))
        assert coefficient == modinv(q, p)  # RFC 8017's qInv
        assert crt_combine((m % q, m % p), (q, p), (coefficient,)) == m

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**20))
    def test_recombination_three_moduli(self, m):
        moduli = (1_000_003, 999_983, 1_000_033)
        m = m % math.prod(moduli)
        residues = tuple(m % r for r in moduli)
        assert crt_combine(residues, moduli, crt_coefficients(moduli)) == m

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            crt_coefficients((15, 7, 21))


class TestLcm:
    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=10**6))
    def test_matches_math(self, a, b):
        assert lcm(a, b) == math.lcm(a, b)

    @given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=4))
    def test_many_values(self, values):
        assert lcm(*values) == math.lcm(*values)
