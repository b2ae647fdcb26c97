"""Measuring protocol operations in simulated time and in counted work.

The model (see :mod:`repro.sim.clock`): an operation's virtual duration is

    T = wall_cpu * cpu_scale + network_time

where ``wall_cpu`` is the *measured* real time of the synchronous call
(all crypto on both sides executes in-process during the call) and
``network_time`` is the modeled link transit accumulated by the simulated
network during the call.  ``cpu_scale`` lets experiments impersonate
slower hosts (the paper used a 1.2 GHz Pentium M).

Work is counted rather than timed: :func:`fresh_registry` swaps in an
empty observability registry for the duration of a measurement, and
:func:`work` reads the registry's traffic and crypto counters, so the
difference of two readings is exactly the work done in between.  Every
:func:`timed_call` records that difference, and the gates compare it,
because it is the same on any machine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.crypto.sigcache import get_sig_cache
from repro.sim.network import SimNetwork

#: per-operation work counts read from the registry, by report key
WORK_COUNTERS = {
    "frames": "net.frames_sent",
    "bytes": "net.bytes_sent",
    "rsa_private": "crypto.rsa.private_op",
    "rsa_public": "crypto.rsa.public_op",
    "rsa_verify": "crypto.rsa.verify_op",
    "envelope_seal": "crypto.envelope.seal",
    "envelope_open": "crypto.envelope.open",
    "resume_seal": "crypto.resume.seal",
    "resume_open": "crypto.resume.open",
}

#: every work count: the simulator's traffic, then the crypto counts
WORK_COUNTS = tuple(WORK_COUNTERS)


@contextmanager
def fresh_registry() -> Iterator[obs.Registry]:
    """Swap in an empty registry (with its tracer and events).

    The previous registry, tracer and event bus come back on exit, so
    the counters inside the block cover exactly the work done there.
    The process-wide signature cache is emptied on entry, so a block's
    verify count does not depend on what ran before it.  Also usable as
    a decorator.
    """
    get_sig_cache().invalidate()
    registry = obs.Registry()
    saved = (obs.get_registry(), obs.get_tracer(), obs.get_events())
    obs.set_registry(registry)
    obs.set_tracer(obs.Tracer(registry=registry))
    obs.set_events(obs.ProtocolEvents(registry=registry))
    try:
        yield registry
    finally:
        obs.set_registry(saved[0])
        obs.set_tracer(saved[1])
        obs.set_events(saved[2])


def work(registry: obs.Registry) -> dict[str, int]:
    """Cumulative work so far: the simulator's traffic and the counters."""
    return {key: registry.count(name) for key, name in WORK_COUNTERS.items()}


@dataclass(frozen=True)
class OpTiming:
    """One measured operation."""

    wall_cpu_s: float
    network_s: float
    cpu_scale: float
    #: the work the call did, by :data:`WORK_COUNTS` key
    work: dict[str, int] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.wall_cpu_s * self.cpu_scale + self.network_s


def timed_call(network: SimNetwork, fn: Callable[[], object],
               cpu_scale: float = 1.0) -> OpTiming:
    """Run ``fn``; split its cost into CPU and modeled network time and
    count the work it did (in the current registry)."""
    registry = obs.get_registry()
    before = work(registry)
    net0 = network.clock.network_time
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    after = work(registry)
    return OpTiming(
        wall_cpu_s=wall,
        network_s=network.clock.network_time - net0,
        cpu_scale=cpu_scale,
        work={key: after[key] - before[key] for key in WORK_COUNTS},
    )


def repeat_timed(network: SimNetwork, fn: Callable[[], object],
                 repeats: int, cpu_scale: float = 1.0,
                 warmup: int = 1) -> list[OpTiming]:
    """Warm up (JIT-ish caches, advertisement validation) then measure."""
    for _ in range(warmup):
        fn()
    return [timed_call(network, fn, cpu_scale) for _ in range(repeats)]


def mean_total(timings: list[OpTiming]) -> float:
    return sum(t.total_s for t in timings) / len(timings) if timings else 0.0


def work_per_op(timings: list[OpTiming], ops: int = 1) -> dict[str, float]:
    """Mean work of one operation when each timing covers *ops* of them."""
    calls = len(timings) * ops
    return {key: round(sum(t.work[key] for t in timings) / calls, 3)
            for key in WORK_COUNTS}


def overhead_pct(secure_s: float, plain_s: float) -> float:
    """The paper's metric: extra cost of the secure variant, in percent."""
    if plain_s <= 0:
        raise ValueError("plain baseline duration must be positive")
    return (secure_s - plain_s) / plain_s * 100.0
