"""RSA key generation and the raw trapdoor permutation (from scratch).

Padding schemes live in :mod:`repro.crypto.pkcs1`; this module only deals
with keys and modular exponentiation.  Keys of 1024 bits and more are
multi-prime (RFC 8017 section 3.2) with three primes; smaller ones keep
two.  The private operation is the multi-prime CRT of RFC 8017 section
5.1.2 step 2.b for either shape: one exponentiation per prime with the
exponent ``d mod (r_i - 1)``, folded together by Garner's recombination.
Each exponentiation works on a third of the modulus instead of a half,
so a 1024-bit private operation costs about half what two primes cost.
The modulus, the public key and every padding are the same as with two
primes; a 341-bit factor is far beyond the elliptic-curve method, so
factoring ``n`` with the number field sieve stays the best attack.

Key generation is fully deterministic given a caller-supplied DRBG, which
the test-suite and benchmarks use to make runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from repro import obs
from repro.crypto.drbg import HmacDrbg, system_drbg
from repro.crypto.numtheory import (
    crt_coefficients,
    crt_combine,
    generate_prime,
    lcm,
    modinv,
)
from repro.crypto.sha2 import sha256
from repro.errors import InvalidKeyError
from repro.utils.bytesutil import i2b_fixed

#: The public exponent used everywhere (F4, the universal default).
PUBLIC_EXPONENT = 65537

#: Key sizes accepted by :func:`generate_keypair`.  512 exists only so the
#: unit-test suite can exercise full protocol runs quickly; real deployments
#: of the 2009 system used 1024, today's floor is 2048.
SUPPORTED_BITS = (512, 768, 1024, 1536, 2048, 3072, 4096)

#: Smallest modulus that :func:`generate_keypair` builds from three primes.
MULTI_PRIME_MIN_BITS = 1024


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def encrypt_int(self, m: int) -> int:
        """Raw RSAEP: ``m^e mod n``.  Callers must pad first."""
        if not 0 <= m < self.n:
            raise ValueError("message representative out of range")
        obs.get_registry().incr("crypto.rsa.public_op")
        return pow(m, self.e, self.n)

    def verify_int(self, s: int) -> int:
        """Raw RSAVP1: the same permutation as RSAEP, accounted separately
        so BENCH_* RSA-op counts can tell verifies from encrypt-wraps."""
        if not 0 <= s < self.n:
            raise ValueError("signature representative out of range")
        obs.get_registry().incr("crypto.rsa.verify_op")
        return pow(s, self.e, self.n)

    def fingerprint(self) -> bytes:
        """SHA-256 over the canonical encoding — the basis of CBIDs."""
        nb = self.byte_length
        return sha256(b"rsa-pub|" + i2b_fixed(self.n, nb) + b"|" + i2b_fixed(self.e, 4))

    def to_dict(self) -> dict:
        return {"kty": "RSA", "n": hex(self.n), "e": hex(self.e)}

    @classmethod
    def from_dict(cls, obj: dict) -> "PublicKey":
        try:
            if obj.get("kty") != "RSA":
                raise KeyError("kty")
            return cls(n=int(obj["n"], 16), e=int(obj["e"], 16))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidKeyError(f"malformed public key encoding: {exc!r}") from exc


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key with its primes and their CRT parameters.

    ``primes`` holds two or more distinct primes whose product is ``n``.
    ``exponents[i]`` is ``d mod (primes[i] - 1)``, and ``coefficients[i]``
    is the inverse of ``primes[0] * ... * primes[i]`` modulo
    ``primes[i + 1]``: the first prime plays the part of RFC 8017's ``q``,
    the second that of ``p`` with ``qInv``, every further one that of
    ``r_i`` with ``t_i``.  Both are derived from ``primes`` and ``d``.
    """

    n: int
    e: int
    d: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...] = field(init=False, repr=False)
    coefficients: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        primes = tuple(self.primes)
        if len(primes) < 2 or prod(primes) != self.n:
            raise InvalidKeyError("the primes do not multiply to the modulus")
        try:
            coefficients = crt_coefficients(primes)
        except ValueError as exc:
            raise InvalidKeyError("the primes are not distinct") from exc
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "exponents",
                           tuple(self.d % (r - 1) for r in primes))
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def public_key(self) -> PublicKey:
        return PublicKey(n=self.n, e=self.e)

    def decrypt_int(self, c: int) -> int:
        """Raw RSADP via the multi-prime CRT (RFC 8017 section 5.1.2)."""
        if not 0 <= c < self.n:
            raise ValueError("ciphertext representative out of range")
        obs.get_registry().incr("crypto.rsa.private_op")
        residues = [pow(c % r, d_r, r)
                    for r, d_r in zip(self.primes, self.exponents)]
        return crt_combine(residues, self.primes, self.coefficients)

    #: RSASP1 (signature generation) is the same permutation.
    sign_int = decrypt_int


@dataclass(frozen=True)
class KeyPair:
    """A matched public/private RSA key pair."""

    public: PublicKey
    private: PrivateKey

    @property
    def bits(self) -> int:
        return self.public.bits


def prime_sizes(bits: int) -> tuple[int, ...]:
    """Bit sizes of the primes :func:`generate_keypair` draws for ``bits``.

    Three primes from :data:`MULTI_PRIME_MIN_BITS` up (two of ``bits // 3``,
    the last taking the remainder), two below.
    """
    count = 3 if bits >= MULTI_PRIME_MIN_BITS else 2
    size = bits // count
    return (size,) * (count - 1) + (bits - size * (count - 1),)


def generate_keypair(bits: int = 1024, drbg: HmacDrbg | None = None) -> KeyPair:
    """Generate an RSA key pair of the requested modulus size.

    ``drbg=None`` draws from the OS entropy pool; passing a seeded
    :class:`HmacDrbg` yields a deterministic key.  A draw is kept only when
    its primes are distinct, their product has exactly ``bits`` bits and
    ``e`` is invertible modulo ``lcm(r_i - 1)``; otherwise every prime is
    drawn again.
    """
    if bits not in SUPPORTED_BITS:
        raise InvalidKeyError(f"unsupported RSA size {bits}; pick one of {SUPPORTED_BITS}")
    rng = drbg if drbg is not None else system_drbg()
    e = PUBLIC_EXPONENT
    sizes = prime_sizes(bits)
    while True:
        primes = tuple(generate_prime(size, rng.rand_bits, rng.rand_below)
                       for size in sizes)
        if len(set(primes)) != len(primes):
            continue
        n = prod(primes)
        if n.bit_length() != bits:
            continue
        try:
            d = modinv(e, lcm(*(r - 1 for r in primes)))
        except ValueError:
            continue  # gcd(e, lambda(n)) != 1; extremely rare, redraw
        private = PrivateKey(n=n, e=e, d=d, primes=primes)
        obs.get_registry().incr("crypto.rsa.keygen")
        return KeyPair(public=private.public_key(), private=private)
