"""Adversary hooks as part of the transport contract.

The simulator has always exposed the §2.3 threat surface directly:
**taps** passively observe every frame and **interceptors** may
rewrite, redirect or drop them (:mod:`repro.sim.network`).  The attack
drivers in :mod:`repro.attacks` and the fault injector in
:mod:`repro.sim.faults` are built on those two hooks.

This module promotes that surface to the :class:`~repro.net.base.
Transport` contract so the same adversary code runs against any
backend:

* :class:`~repro.sim.network.SimNetwork` implements the surface
  natively (frames cross it mid-wire);
* :class:`~repro.net.tcp.TcpTransport` applies an equivalent chain on
  its outbound path — every ``send`` datagram, the request leg before
  the socket write and the response leg after it — which covers all
  traffic whenever the processes under attack share the transport
  object (the in-process attack-evaluation setup).

:func:`adversary_surface` is the check attack code calls: give it
whatever the caller holds and it returns the object to install taps
and interceptors on, or raises :class:`TypeError` when there is none.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.net.base import Frame

__all__ = ["AdversarySurface", "Interceptor", "Tap", "adversary_surface"]


@runtime_checkable
class Tap(Protocol):
    """Passive observer of all frames (an eavesdropper)."""

    def observe(self, frame: Frame) -> None: ...


#: An interceptor sees a frame and returns a (possibly different) frame
#: to deliver, or ``None`` to drop it.  The returned frame's ``dst`` may
#: be rewritten, which models DNS-spoofing style redirection.
class Interceptor(Protocol):
    def __call__(self, frame: Frame) -> Frame | None: ...


@runtime_checkable
class AdversarySurface(Protocol):
    """Where taps and interceptors are installed.

    :class:`~repro.sim.network.SimNetwork` and
    :class:`~repro.net.tcp.TcpTransport` both satisfy this.
    """

    def add_tap(self, tap: Tap) -> None: ...

    def remove_tap(self, tap: Tap) -> None: ...

    def add_interceptor(self, interceptor: Interceptor) -> None: ...

    def remove_interceptor(self, interceptor: Interceptor) -> None: ...


def adversary_surface(backend) -> AdversarySurface:
    """The tap/interceptor surface of ``backend``.

    Accepts any transport exposing the hooks
    (:class:`~repro.sim.network.SimNetwork`,
    :class:`~repro.net.tcp.TcpTransport`).
    """
    if isinstance(backend, AdversarySurface):
        return backend
    raise TypeError(
        f"{type(backend).__name__} exposes no adversary surface "
        "(add_tap/add_interceptor)")


def run_chain(taps, interceptors, frame: Frame) -> Frame | None:
    """Apply taps then interceptors to one frame — the shared semantics.

    Exactly :meth:`SimNetwork._through_adversaries`: every tap observes
    the (current) frame, then each interceptor may substitute or drop
    it.  Factored here so the TCP backend cannot drift from the
    simulator.
    """
    for tap in taps:
        tap.observe(frame)
    out: Frame | None = frame
    for interceptor in interceptors:
        out = interceptor(out)
        if out is None:
            return None
    return out
