"""ChaCha20 stream cipher (RFC 8439) with batched fast paths.

The scalar implementation follows the RFC block function literally and
is the reference.  Two batched formulations exist on top of it:

* ``_keystream_lanes`` — the bigint-lane kernel, used for every batch
  of at most :data:`LANES_MAX_BLOCKS` blocks.  Each of the 16 state
  words is **one Python int** holding that word for all ``n`` blocks,
  block ``i`` in the 64-bit lane at bits ``64i .. 64i+63``; the word's
  32 bits sit at the bottom of the lane and bits 32..63 are guard bits.
  Constants, key and nonce words are the word times the repunit
  ``REP = Σ 2^(64i)``; the counter word is ``(counter·REP + IDX) & M``
  with ``IDX = Σ i·2^(64i)`` and ``M = 0xFFFFFFFF·REP``, so each lane
  wraps at 2^32 on its own.  A lane-wise add is ``(a + b) & M`` (the sum
  of two 32-bit lanes fits in 33 bits, so no carry crosses a lane) and
  xor is plain ``^``.  A rotate is ``((x << k) | (x >> (32 - k))) & M``:
  the left shift pushes the word's top ``k`` bits into its own guard
  bits, the right shift drops its low ``32 - k`` bits into the guard
  bits of the lane below, and the mask clears both spills.  So the
  block function's own rounds (``_rounds``), given ``M`` in place of
  the 32-bit mask, run every block at once: each quarter-round step is
  one C-level bigint operation, 2240 per keystream whatever ``n`` is.
  The 16 ints go back to block-ordered bytes in pairs: word ``2k+1``
  shifted into word ``2k``'s guard bits makes one int whose 64-bit lane
  ``i`` is bytes ``8k .. 8k+7`` of block ``i``; one ``to_bytes`` per
  pair and 8 strided ``memoryview`` slice assignments (pair ``k`` into
  every 8th 64-bit slot from ``k``) interleave them.
* ``_keystream_rows`` — the row formulation: state held as a
  ``(4, 4, n_blocks)`` uint32 array so the four column quarter-rounds of
  each round collapse into **one** vectorized quarter-round over
  ``(4, n)`` rows (diagonal rounds roll rows into column position and
  back), with explicit ``out=`` scratch to avoid temporaries.  Its cost
  is a fixed ~500 numpy calls plus a small per-block term, so it wins
  once the lane ints grow long: measured on a 2-vCPU 2.0 GHz Xeon
  (Python 3.11), the lane kernel takes ~0.2 ms for 9 blocks, ~0.3 ms
  for 65 and ~5 ms for 1025, against a near-flat ~1.2-1.7 ms for rows;
  the crossover lies at about 240 blocks.

``keystream``/``chacha20_xor`` dispatch on the block count.  Only the
row kernel needs numpy, and it imports it on first use: every batch up
to :data:`LANES_MAX_BLOCKS` runs on Python ints and bytes, so a process
that never seals more than ~14 KiB at once never loads numpy (~14 MiB of
RSS and 0.1-0.15 s of import).  Likewise :func:`xor_stream` XORs through
ints up to that size and through numpy above it, where the row kernel
has loaded it already.  The test suite checks both kernels against the
RFC 8439 vectors, against ``chacha20_block`` and against each other.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.utils.bytesutil import xor_bytes

if TYPE_CHECKING:
    import numpy

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

#: Batches of at most this many 64-byte blocks take the bigint-lane
#: kernel; larger ones the numpy row kernel (measured crossover ~240).
LANES_MAX_BLOCKS = 224


def _quarter(x: list[int], a: int, b: int, c: int, d: int, m: int) -> None:
    """One quarter round in place; ``m`` masks every word (or lane) to 32 bits."""
    x[a] = (x[a] + x[b]) & m
    x[d] ^= x[a]
    x[d] = ((x[d] << 16) | (x[d] >> 16)) & m
    x[c] = (x[c] + x[d]) & m
    x[b] ^= x[c]
    x[b] = ((x[b] << 12) | (x[b] >> 20)) & m
    x[a] = (x[a] + x[b]) & m
    x[d] ^= x[a]
    x[d] = ((x[d] << 8) | (x[d] >> 24)) & m
    x[c] = (x[c] + x[d]) & m
    x[b] ^= x[c]
    x[b] = ((x[b] << 7) | (x[b] >> 25)) & m


def _rounds(x: list[int], m: int) -> None:
    """The 20 ChaCha20 rounds (10 column + diagonal pairs), in place."""
    for _ in range(10):
        _quarter(x, 0, 4, 8, 12, m)
        _quarter(x, 1, 5, 9, 13, m)
        _quarter(x, 2, 6, 10, 14, m)
        _quarter(x, 3, 7, 11, 15, m)
        _quarter(x, 0, 5, 10, 15, m)
        _quarter(x, 1, 6, 11, 12, m)
        _quarter(x, 2, 7, 8, 13, m)
        _quarter(x, 3, 4, 9, 14, m)


def _check_sizes(key: bytes, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """The RFC 8439 block function: 64 bytes of keystream."""
    _check_sizes(key, nonce)
    init = list(_CONSTANTS) + list(struct.unpack("<8I", key)) \
        + [counter & _MASK32] + list(struct.unpack("<3I", nonce))
    state = list(init)
    _rounds(state, _MASK32)
    out = [(s + i) & _MASK32 for s, i in zip(state, init)]
    return struct.pack("<16I", *out)


@lru_cache(maxsize=LANES_MAX_BLOCKS)
def _lane_constants(n_blocks: int) -> tuple[int, int, int]:
    """``(REP, IDX, M)`` for ``n_blocks`` 64-bit lanes (see module doc)."""
    rep = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n_blocks,
                         "little")
    idx = int.from_bytes(b"".join(i.to_bytes(8, "little")
                                  for i in range(n_blocks)), "little")
    return rep, idx, _MASK32 * rep


def _keystream_lanes(key: bytes, counter: int, nonce: bytes,
                     n_blocks: int) -> bytes:
    """Bigint-lane keystream: one Python int per state word."""
    rep, idx, m = _lane_constants(n_blocks)
    words = (_CONSTANTS + struct.unpack("<8I", key) + (0,)
             + struct.unpack("<3I", nonce))
    init = [w * rep for w in words]
    init[12] = ((counter & _MASK32) * rep + idx) & m
    state = list(init)
    _rounds(state, m)
    out = [(x + i) & m for x, i in zip(state, init)]
    # word 2k+1 moves into word 2k's guard bits, so each 64-bit lane of
    # ``pairs[k]`` holds bytes 8k..8k+7 of its block, in order
    width = 8 * n_blocks
    pairs = memoryview(b"".join((out[k] | (out[k + 1] << 32)).to_bytes(
        width, "little") for k in range(0, 16, 2))).cast("Q")
    # (pair, block) -> (block, pair); the copy moves whole 64-bit units,
    # so the host's byte order is moot
    stream = bytearray(64 * n_blocks)
    units = memoryview(stream).cast("Q")
    for k in range(8):
        units[k::8] = pairs[k * n_blocks:(k + 1) * n_blocks]
    return bytes(stream)


def _qr_rows(np, a: numpy.ndarray, b: numpy.ndarray, c: numpy.ndarray,
             d: numpy.ndarray, t: numpy.ndarray) -> None:
    """One quarter round over four (4, n_blocks) rows at once, in place.

    ``np`` is the numpy module (imported by :func:`_keystream_rows`);
    ``t`` is caller-provided scratch of the same shape; the rotations are
    expressed with ``out=`` so the round allocates nothing.
    """
    a += b
    d ^= a
    np.left_shift(d, 16, out=t)
    np.right_shift(d, 16, out=d)
    np.bitwise_or(d, t, out=d)
    c += d
    b ^= c
    np.left_shift(b, 12, out=t)
    np.right_shift(b, 20, out=b)
    np.bitwise_or(b, t, out=b)
    a += b
    d ^= a
    np.left_shift(d, 8, out=t)
    np.right_shift(d, 24, out=d)
    np.bitwise_or(d, t, out=d)
    c += d
    b ^= c
    np.left_shift(b, 7, out=t)
    np.right_shift(b, 25, out=b)
    np.bitwise_or(b, t, out=b)


def _keystream_rows(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """Row-formulation keystream: the state as a (4, 4, n_blocks) array.

    Rows are the four words each quarter-round touches; a column round is
    a single vectorized quarter-round, a diagonal round rolls rows 1-3
    into column position and back.  numpy is imported here, on the first
    batch above :data:`LANES_MAX_BLOCKS`, and nowhere earlier.
    """
    import numpy as np

    init = np.empty((4, 4, n_blocks), dtype=np.uint32)
    init[0] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[1:3] = np.frombuffer(key, dtype="<u4").reshape(2, 4, 1)
    counters = (np.arange(n_blocks, dtype=np.uint64) + np.uint64(counter)) & np.uint64(_MASK32)
    init[3, 0] = counters.astype(np.uint32)
    init[3, 1:4] = np.frombuffer(nonce, dtype="<u4")[:, None]
    x = init.copy()
    t = np.empty((4, n_blocks), dtype=np.uint32)
    r0, r1, r2, r3 = x[0], x[1], x[2], x[3]
    with np.errstate(over="ignore"):
        for _ in range(10):
            _qr_rows(np, r0, r1, r2, r3, t)
            x[1] = np.roll(r1, -1, axis=0)
            x[2] = np.roll(r2, -2, axis=0)
            x[3] = np.roll(r3, -3, axis=0)
            _qr_rows(np, r0, r1, r2, r3, t)
            x[1] = np.roll(r1, 1, axis=0)
            x[2] = np.roll(r2, 2, axis=0)
            x[3] = np.roll(r3, 3, axis=0)
        x += init
    return x.reshape(16, n_blocks).T.astype("<u4").tobytes()


def keystream(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """``n_blocks`` consecutive 64-byte keystream blocks from ``counter``.

    The kernel is picked by block count: the bigint-lane kernel up to
    :data:`LANES_MAX_BLOCKS`, the numpy row kernel above.  The AEAD layer
    uses this to fuse the Poly1305 one-time-key block and the message
    keystream into a single call.
    """
    _check_sizes(key, nonce)
    if n_blocks > LANES_MAX_BLOCKS:
        return _keystream_rows(key, counter, nonce, n_blocks)
    return _keystream_lanes(key, counter, nonce, n_blocks)


def xor_stream(data: bytes, stream: bytes, offset: int = 0) -> bytes:
    """``data`` XOR ``stream[offset:offset + len(data)]``.

    Through Python ints up to a lane-kernel batch; above it, through
    numpy, which the row kernel that made ``stream`` has already loaded
    (on the 2-vCPU Xeon above, ints take ~70 us at 16 KiB and ~190 us at
    64 KiB, numpy ~5-10 us).
    """
    n = len(data)
    if n > 64 * LANES_MAX_BLOCKS:
        import numpy as np

        return (np.frombuffer(data, dtype=np.uint8)
                ^ np.frombuffer(stream, dtype=np.uint8, count=n,
                                offset=offset)).tobytes()
    return xor_bytes(data, stream[offset:offset + n])


def chacha20_xor(key: bytes, nonce: bytes, data: bytes,
                 counter: int = 1) -> bytes:
    """Encrypt/decrypt ``data`` (XOR with keystream starting at ``counter``)."""
    if not data:
        return b""
    n_blocks = (len(data) + 63) // 64
    return xor_stream(data, keystream(key, counter, nonce, n_blocks))
