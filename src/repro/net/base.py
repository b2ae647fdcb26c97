"""The transport abstraction underneath every endpoint.

A :class:`Transport` moves **serialized frame bytes** between named
addresses.  Two backends implement it:

* :class:`repro.sim.network.SimNetwork` — the discrete-event simulator
  (deterministic; the test harness),
* :class:`repro.net.tcp.TcpTransport` — real asyncio TCP sockets with
  length-prefixed framing (the production path).

Either way, one transport object serves every endpoint of a world (a
simulated network, or a process), and so does its one link scheduler
(:mod:`repro.net.linkq`).

The overlay never talks to a backend directly: it goes through
:class:`repro.jxta.endpoint.Endpoint`, which owns message decode,
the wire boundary and handler dispatch.  Because both backends carry
the same :class:`Frame` quadruple (src, dst, payload, sent_at), the
same broker/client/federation/secure-* code serves simulated links
and real sockets unchanged.

Lifecycle hooks, modeled on event-driven IPC servers (connect /
receive / close), are delivered per registration:

* ``on_connect(peer)`` — first traffic (or socket accept) from a peer,
* ``on_close(peer)`` — the peer's connection went away (socket close;
  synthesized at unregister time on the simulator).

Message-level ``on_receive`` lives on the endpoint, after decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable


@dataclass(frozen=True)
class Frame:
    """One message on the wire."""

    src: str
    dst: str
    payload: bytes
    sent_at: float

    @property
    def size(self) -> int:
        return len(self.payload)


#: Handler signature: receives the frame, returns optional response bytes.
FrameHandler = Callable[[Frame], "bytes | None"]

#: Lifecycle hook: called with the peer's address.
PeerHook = Callable[[str], None]


class TransportClock(Protocol):
    """What a backend's clock must offer the layers above it.

    :class:`repro.sim.clock.VirtualClock` (simulated time) and
    :class:`repro.net.clock.WallClock` (real time) both satisfy this,
    so retry backoff, timeout budgets, credential validity windows and
    circuit breakers run unchanged on either backend.
    """

    @property
    def now(self) -> float: ...

    def advance(self, seconds: float) -> float: ...

    def charge_cpu(self, seconds: float) -> float: ...

    def cpu_section(self): ...


@runtime_checkable
class Transport(Protocol):
    """A named-address datagram + request/response byte mover.

    Semantics every backend must honour (they are what the overlay's
    retry/failover machinery is written against):

    * :meth:`register` raises :class:`~repro.errors.NetworkError` when
      the address is taken;
    * :meth:`send` raises :class:`~repro.errors.NetworkError` for an
      unknown destination and returns ``False`` on best-effort loss;
    * :meth:`request` raises :class:`~repro.errors.NetworkError` when
      the exchange fails or the responder does not answer.

    The link layer is part of the contract too: :meth:`configure_links`
    sets the policy (and breakers) of the transport's one link
    scheduler, :meth:`corked` coalesces the sends inside it, and
    :meth:`set_link_compression` records a negotiated zlib level.  A
    socket transport builds its scheduler on the first
    ``configure_links``; before it, :meth:`corked` is a no-op context
    and :meth:`set_link_compression` raises ``NetworkError``.
    """

    clock: TransportClock

    def register(self, address: str, handler: FrameHandler, *,
                 on_connect: PeerHook | None = None,
                 on_close: PeerHook | None = None) -> None: ...

    def unregister(self, address: str) -> None: ...

    def is_registered(self, address: str) -> bool: ...

    def send(self, src: str, dst: str, payload: bytes) -> bool: ...

    def request(self, src: str, dst: str, payload: bytes) -> bytes: ...

    def configure_links(self, policy=None, *, breaker_factory=None): ...

    def corked(self): ...

    def set_link_compression(self, src: str, dst: str, level: int) -> None: ...
