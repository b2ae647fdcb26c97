"""Composable, deterministic fault injection for :class:`SimNetwork`.

The paper evaluates the secure primitives on a lossless in-process path;
real JXTA-Overlay deployments live on lossy, partition-prone networks.
This module turns the simulator's existing adversary hook — the
interceptor protocol from :mod:`repro.sim.network`, the same one the
attack drivers in :mod:`repro.attacks` use — into a fault-injection
surface:

* :class:`FrameLoss` — probabilistic drops;
* :class:`LatencyJitter` — extra per-frame transit delay;
* :class:`DuplicateDelivery` — at-least-once delivery artefacts;
* :class:`LinkOutage` — a src/dst pair goes dark for a window;
* :class:`Partition` — two address groups cannot reach each other until
  a scheduled heal time;
* :class:`BrokerCrash` — an endpoint drops everything during an outage
  window and runs a restart callback (e.g. ``broker.restart()``) when it
  comes back, modelling loss of in-memory session state.

A :class:`FaultPlan` composes any number of faults and installs them as
**one** interceptor.  Every probabilistic fault draws from its own DRBG
stream forked from the plan seed, so a given (plan, seed) pair replays
the exact same fault schedule regardless of what else draws randomness —
the property ``tests/sim/test_faults.py`` locks in.

Injections are counted as ``faults.<fault>.injected`` in the metrics
registry (documented in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro import obs
from repro.sim.network import Frame, SimNetwork
from repro.sim.rng import SimRandom


class Fault:
    """One composable fault.  Subclasses override :meth:`apply`.

    ``apply`` sees every frame (both legs of a ``request`` included) and
    returns the frame to keep delivering or ``None`` to drop it, exactly
    like a raw interceptor — plus it may call back into the injector for
    side effects (extra latency, duplicate delivery).
    """

    #: short name used for RNG stream labels and metrics
    name = "fault"

    def bind(self, injector: "FaultInjector", index: int) -> None:
        self.injector = injector
        self.rng = injector.rng.stream(f"fault.{index}.{self.name}")

    def apply(self, frame: Frame) -> Frame | None:
        raise NotImplementedError

    def _injected(self) -> None:
        obs.get_registry().incr(f"faults.{self.name}.injected")


class FrameLoss(Fault):
    """Drop each matching frame with probability ``rate``."""

    name = "loss"

    def __init__(self, rate: float,
                 match: Callable[[Frame], bool] | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        self.rate = rate
        self.match = match

    def apply(self, frame: Frame) -> Frame | None:
        if self.match is not None and not self.match(frame):
            return frame
        if self.rng.uniform() < self.rate:
            self._injected()
            return None
        return frame


class LatencyJitter(Fault):
    """Add uniform extra transit delay in ``[min_s, max_s]`` per frame."""

    name = "jitter"

    def __init__(self, min_s: float = 0.0, max_s: float = 0.05) -> None:
        if min_s < 0 or max_s < min_s:
            raise ValueError("need 0 <= min_s <= max_s")
        self.min_s = min_s
        self.max_s = max_s

    def apply(self, frame: Frame) -> Frame | None:
        extra = self.min_s + (self.max_s - self.min_s) * self.rng.uniform()
        if extra > 0:
            self._injected()
            self.injector.network.clock.advance_network(extra)
        return frame


class DuplicateDelivery(Fault):
    """Deliver an extra copy of the frame with probability ``rate``.

    The duplicate goes straight to the destination handler without
    re-entering the adversary chain — the wire delivered the same bytes
    twice, it did not re-send them.  This is the at-least-once artefact
    the replay defences (nonce cache, one-shot ``sid``) must absorb.
    """

    name = "duplicate"

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("duplicate rate must be in [0, 1]")
        self.rate = rate

    def apply(self, frame: Frame) -> Frame | None:
        if self.rng.uniform() < self.rate:
            self._injected()
            self.injector.deliver_copy(frame)
        return frame


class _Window(Fault):
    """Shared machinery for time-windowed outages."""

    def __init__(self, start: float, heal_at: float) -> None:
        if heal_at < start:
            raise ValueError("heal_at must not precede start")
        self.start = start
        self.heal_at = heal_at

    def active(self) -> bool:
        return self.start <= self.injector.network.clock.now < self.heal_at

    def covers(self, frame: Frame) -> bool:
        raise NotImplementedError

    def apply(self, frame: Frame) -> Frame | None:
        if self.active() and self.covers(frame):
            self._injected()
            return None
        return frame


class LinkOutage(_Window):
    """One src/dst pair (both directions) is dark during the window."""

    name = "link_outage"

    def __init__(self, a: str, b: str, start: float, heal_at: float) -> None:
        super().__init__(start, heal_at)
        self.pair = frozenset((a, b))

    def covers(self, frame: Frame) -> bool:
        return frozenset((frame.src, frame.dst)) == self.pair


class Partition(_Window):
    """Frames crossing between two address groups are dropped."""

    name = "partition"

    def __init__(self, group_a: Iterable[str], group_b: Iterable[str],
                 start: float, heal_at: float) -> None:
        super().__init__(start, heal_at)
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)

    def covers(self, frame: Frame) -> bool:
        return ((frame.src in self.group_a and frame.dst in self.group_b)
                or (frame.src in self.group_b and frame.dst in self.group_a))


class BrokerCrash(_Window):
    """An endpoint is down for a window, then restarts with empty RAM.

    While ``now`` is inside ``[at, restart_at)`` every frame to or from
    ``address`` is dropped.  The first frame processed at or after
    ``restart_at`` first runs ``on_restart`` (once) — wire it to
    :meth:`repro.overlay.broker.Broker.restart` so in-memory session
    state (and the secure broker's ``sid`` store) is wiped exactly the
    way a real crash wipes it.
    """

    name = "broker_crash"

    def __init__(self, address: str, at: float, restart_at: float,
                 on_restart: Callable[[], None] | None = None) -> None:
        super().__init__(at, restart_at)
        self.address = address
        self.on_restart = on_restart
        self._restarted = False

    def covers(self, frame: Frame) -> bool:
        return self.address in (frame.src, frame.dst)

    def apply(self, frame: Frame) -> Frame | None:
        now = self.injector.network.clock.now
        if (not self._restarted and now >= self.heal_at
                and self.on_restart is not None):
            self._restarted = True
            self.on_restart()
        return super().apply(frame)


class FaultInjector:
    """The single interceptor a :class:`FaultPlan` installs."""

    def __init__(self, network: SimNetwork, faults: tuple[Fault, ...],
                 seed: bytes | str = b"repro-faults") -> None:
        self.network = network
        self.faults = faults
        self.rng = SimRandom(seed)
        for index, fault in enumerate(faults):
            fault.bind(self, index)

    def __call__(self, frame: Frame) -> Frame | None:
        out: Frame | None = frame
        for fault in self.faults:
            out = fault.apply(out)
            if out is None:
                return None
        return out

    def deliver_copy(self, frame: Frame) -> None:
        """Hand a duplicate straight to the destination handler."""
        handler = self.network._handlers.get(frame.dst)
        if handler is not None:
            handler(frame)

    def uninstall(self) -> None:
        self.network.remove_interceptor(self)


class FaultPlan:
    """An ordered composition of faults, installable on a network."""

    def __init__(self, *faults: Fault) -> None:
        self.faults = faults

    def install(self, network: SimNetwork,
                seed: bytes | str = b"repro-faults") -> FaultInjector:
        injector = FaultInjector(network, self.faults, seed)
        network.add_interceptor(injector)
        return injector
