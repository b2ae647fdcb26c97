"""Hot-path optimization switches (the ablation surface of E-HOTPATH).

Five PRs each added a per-message layer — obs counters, fault/policy
wrappers, seal/resume crypto, consistent-hash routing, the ``repro.wire``
boundary — and the hot-path pass that measured their stacked cost landed
a set of targeted optimizations.  Every one of them is **behaviour
preserving** (same bytes on the wire, same accept/reject decisions, same
metric values) and individually switchable here, so the benchmark can
measure the legacy path against the optimized path *in the same
process* and tests can diff the two implementations against each other.

The switches:

* ``chacha_vector`` — the reformed ChaCha20-Poly1305: one combined
  keystream call per AEAD operation (Poly1305 OTK block fused into the
  batch), the bigint-lane and row-vectorized keystream kernels
  (`repro.crypto.chacha20`) and the interleaved-lane Poly1305
  (`repro.crypto.poly1305`).
* ``pipe_validation_memo`` — identity-keyed memoization of validated
  signed pipe advertisements in the secure client (revocation and
  validity windows still checked on every hit).
* ``wire_cache`` — serialized-bytes reuse on
  :class:`~repro.jxta.messages.Message`: ``to_wire`` memoizes its output
  and ``from_wire`` seeds the cache with the received buffer, both
  invalidated by any mutation.
* ``compiled_decoders`` — per-:class:`~repro.wire.schema.FrameSpec`
  precompiled decode closures used by the dispatch boundary instead of
  the per-field interpretive loop (the interpretive ``FrameSpec.decode``
  remains the reference the tests compare against).
* ``ring_memo`` — consistent-hash owner lookups memoized per key,
  invalidated whenever ring membership changes.
* ``interned_metrics`` — hot counters/histograms resolved once to
  instrument objects instead of going through a string-keyed dict
  lookup per increment.

``set_all(False)`` is the pre-optimization ("legacy") configuration;
``set_all(True)`` is the default.  Flags are plain module-global
attribute reads on the hot path — one load per check.
"""

from __future__ import annotations

from contextlib import contextmanager

#: Every switch name, in the order the bench ablation reports them.
FLAG_NAMES = (
    "chacha_vector",
    "pipe_validation_memo",
    "wire_cache",
    "compiled_decoders",
    "ring_memo",
    "interned_metrics",
)


class Flags:
    """The mutable switch set.  One process-global instance, ``FLAGS``."""

    __slots__ = FLAG_NAMES

    def __init__(self, enabled: bool = True) -> None:
        for name in FLAG_NAMES:
            setattr(self, name, enabled)

    def set_all(self, enabled: bool) -> "Flags":
        for name in FLAG_NAMES:
            setattr(self, name, enabled)
        return self

    def to_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}

    def apply(self, **flags: bool) -> "Flags":
        for name, value in flags.items():
            if name not in FLAG_NAMES:
                raise ValueError(f"unknown perf flag {name!r}")
            setattr(self, name, value)
        return self


#: The process-global switch set consulted by the hot paths.
FLAGS = Flags(enabled=True)


def set_all(enabled: bool) -> Flags:
    """Flip every optimization on (default) or off (legacy path)."""
    return FLAGS.set_all(enabled)


@contextmanager
def flags(**overrides: bool):
    """Temporarily override switches (bench ablations, differential tests).

    ``with perf.flags(chacha_vector=False): ...`` — or ``all=False`` to
    start from the legacy configuration and then apply the rest.
    """
    saved = FLAGS.to_dict()
    try:
        base = overrides.pop("all", None)
        if base is not None:
            FLAGS.set_all(bool(base))
        FLAGS.apply(**overrides)
        yield FLAGS
    finally:
        FLAGS.apply(**saved)
