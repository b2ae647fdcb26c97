"""Transport backends for the endpoint runtime.

The overlay's endpoints are transport-agnostic: the same broker,
client, federation and secure-* code runs on

* :class:`~repro.sim.network.SimNetwork` — the deterministic
  discrete-event simulator (the test harness), and
* :class:`~repro.net.tcp.TcpTransport` — real asyncio TCP sockets with
  length-prefixed framing (the production path).

See ``docs/TRANSPORTS.md`` for the backend matrix, the framing format
and the lifecycle-hook contract.

:class:`~repro.net.tcp.TcpTransport` and the link-layer classes are
exported lazily: :mod:`repro.net.framing` (pulled in by both) imports
:mod:`repro.jxta`, which imports this package back.
"""

from repro.net.adversary import AdversarySurface, adversary_surface
from repro.net.base import (
    Frame,
    FrameHandler,
    PeerHook,
    Transport,
    TransportClock,
)
from repro.net.clock import WallClock

__all__ = [
    "AdversarySurface",
    "adversary_surface",
    "Frame",
    "FrameHandler",
    "LinkPolicy",
    "LinkScheduler",
    "PeerHook",
    "TcpTransport",
    "Transport",
    "TransportClock",
    "WallClock",
]


def SimTransport(network):
    """Return ``network`` unchanged: a ``SimNetwork`` is a transport.

    Kept only for ``sim_p50_ms`` in ``benchmarks/e2e/harness.py``,
    which still wraps its network in this name; remove it together
    with that call.
    """
    return network


def __getattr__(name: str):
    if name == "TcpTransport":
        from repro.net.tcp import TcpTransport
        return TcpTransport
    if name in ("LinkPolicy", "LinkScheduler"):
        from repro.net import linkq
        return getattr(linkq, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
