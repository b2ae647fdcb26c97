"""Number-theoretic primitives backing the RSA implementation.

Everything here is deterministic given the caller-supplied random source,
which keeps RSA key generation reproducible in tests and benchmarks.
"""

from __future__ import annotations

from typing import Callable, Sequence

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389,
    397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541,
)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises if not coprime."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return x % m


def is_probable_prime(n: int, rand_below: Callable[[int], int], rounds: int = 40) -> bool:
    """Miller-Rabin probabilistic primality test.

    ``rand_below(k)`` must return a uniform integer in ``[0, k)``.  With 40
    rounds the error probability is below 2^-80, which is standard practice
    for RSA prime generation.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + rand_below(n - 3)  # uniform in [2, n-2]
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rand_bits: Callable[[int], int],
                   rand_below: Callable[[int], int]) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    ``rand_bits(k)`` must return a uniform k-bit-bounded integer in
    ``[0, 2^k)``.  The top two bits are forced to 1 so products of two such
    primes have exactly ``2*bits`` bits (the usual RSA convention), and the
    low bit is forced to 1 so the candidate is odd.
    """
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rand_bits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rand_below):
            return candidate


def crt_coefficients(moduli: Sequence[int]) -> tuple[int, ...]:
    """Garner coefficients for pairwise coprime ``moduli``.

    Entry ``i`` is ``(moduli[0] * ... * moduli[i])^-1 mod moduli[i + 1]``;
    raises ``ValueError`` when two moduli share a factor.
    """
    coefficients = []
    product = moduli[0]
    for modulus in moduli[1:]:
        coefficients.append(modinv(product, modulus))
        product *= modulus
    return tuple(coefficients)


def crt_combine(residues: Sequence[int], moduli: Sequence[int],
                coefficients: Sequence[int]) -> int:
    """Garner's CRT recombination used by the RSA private operation.

    Given ``residues[i] = m mod moduli[i]`` and the
    :func:`crt_coefficients` of ``moduli``, recovers ``m`` modulo the
    product of the moduli (RFC 8017 section 5.1.2, step 2.b).
    """
    m = residues[0]
    product = moduli[0]
    for residue, modulus, coefficient in zip(residues[1:], moduli[1:],
                                             coefficients):
        m += product * ((residue - m) * coefficient % modulus)
        product *= modulus
    return m


def lcm(*values: int) -> int:
    """Least common multiple (used for the Carmichael function of n)."""
    from math import gcd

    result = 1
    for value in values:
        result = result // gcd(result, value) * value
    return result
