"""Endpoint service: a peer's attachment point to the network.

Dispatches incoming frames to per-message-type handlers, mirroring
JXTA's endpoint service.  The endpoint is **transport-agnostic**: it
talks to any :class:`~repro.net.base.Transport` backend — the
discrete-event simulator (:class:`~repro.sim.network.SimNetwork`) or
real asyncio TCP sockets (:class:`~repro.net.tcp.TcpTransport`) — so
the same overlay code serves simulated links and 127.0.0.1 sockets.

Outgoing traffic additionally goes through an optional
:class:`~repro.jxta.transport.base.SecureTransport` (plain, TLS or
CBJX), which is how the related-work baselines plug in underneath
*any* JXTA traffic without the upper layers knowing.  The two layers
are orthogonal: the net transport moves bytes between addresses, the
secure transport decides what those bytes look like.

Everything an endpoint needs is declared through one entry point,
:meth:`Endpoint.configure` — handler table, wire boundary, secure
transport, and the connect/receive/close lifecycle hooks.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import FrameTooLargeError, JxtaError, NetworkError, TransportError
from repro.jxta.messages import Message
from repro.jxta.transport.base import PlainTransport, SecureTransport
from repro.net.base import Frame, Transport
from repro.sim.metrics import Metrics

MessageHandler = Callable[[Message, str], Message | None]
"""Receives (message, source_address); may return a response message."""

ReceiveHook = Callable[[Message, str], None]
"""Lifecycle hook: every accepted inbound message, before dispatch."""

PeerHook = Callable[[str], None]
"""Lifecycle hook: a peer connected to us / its connection closed."""


class Endpoint:
    """A named attachment to a transport backend."""

    def __init__(self, network: Transport, address: str,
                 transport: SecureTransport | None = None) -> None:
        """Attach to the :class:`~repro.net.base.Transport` ``network``.
        ``transport`` is the optional *secure* (crypto) transport, kept
        under its historical name."""
        self.net = network
        self.address = address
        self.transport = transport if transport is not None else PlainTransport()
        self.metrics = Metrics()
        self._handlers: dict[str, MessageHandler] = {}
        self._default_handler: MessageHandler | None = None
        self._wire = None  # set by configure(wire=True)
        self._on_connect: PeerHook | None = None
        self._on_receive: ReceiveHook | None = None
        self._on_close: PeerHook | None = None
        self._closed = False
        self.net.register(address, self._on_frame,
                          on_connect=self._fire_connect,
                          on_close=self._fire_close)

    @property
    def clock(self):
        return self.net.clock

    # -- link scheduling -----------------------------------------------------

    def configure_links(self, policy=None, *, breaker_factory=None):
        """Set the policy (and breakers) of the transport's link scheduler.

        Returns the :class:`~repro.net.linkq.LinkScheduler`.
        """
        return self.net.configure_links(policy, breaker_factory=breaker_factory)

    def corked(self):
        """Coalesce sends inside the context into shared wire units.

        A no-op context on a socket transport before ``configure_links``
        (the simulator always has its scheduler), so fan-out loops may
        cork unconditionally.
        """
        return self.net.corked()

    # -- declarative configuration -----------------------------------------

    def configure(self, *, handlers: Mapping[str, MessageHandler] | None = None,
                  default: MessageHandler | None = None,
                  wire: bool | None = None,
                  transport: SecureTransport | None = None,
                  on_connect: PeerHook | None = None,
                  on_receive: ReceiveHook | None = None,
                  on_close: PeerHook | None = None) -> "Endpoint":
        """Declare this endpoint's runtime surface in one call.

        * ``handlers`` — message-type → handler table, merged into the
          registry (a duplicate type raises, exactly like :meth:`on`);
          layered stacks call ``configure`` once per layer (plain
          broker functions, then the secure extension's).
        * ``default`` — fallback handler for unmatched types.
        * ``wire`` — ``True`` validates every inbound frame against
          :mod:`repro.wire` *before* dispatch (rejects counted under
          ``wire.reject.*``); ``False`` removes the boundary; ``None``
          leaves it unchanged.  Raw endpoints (tests, taps) stay
          schema-free unless they opt in.
        * ``transport`` — the :class:`SecureTransport` wrapping frame
          bytes (plain/TLS/CBJX).
        * ``on_connect`` / ``on_receive`` / ``on_close`` — lifecycle
          hooks: first traffic from a peer, every accepted message
          (after decode + wire check, before dispatch), and a peer's
          connection going away.

        Returns ``self`` so construction can chain.
        """
        if handlers:
            for msg_type, handler in handlers.items():
                self.on(msg_type, handler)
        if default is not None:
            self.on_default(default)
        if wire is not None:
            if wire:
                # Imported lazily: repro.wire itself imports
                # repro.jxta.messages, so a module-level import here
                # would cycle through the package.
                from repro import wire as wire_mod
                self._wire = wire_mod
            else:
                self._wire = None
        if transport is not None:
            self.transport = transport
        if on_connect is not None:
            self._on_connect = on_connect
        if on_receive is not None:
            self._on_receive = on_receive
        if on_close is not None:
            self._on_close = on_close
        return self

    def close(self) -> None:
        """Detach from the transport and drain in-flight state.

        Idempotent.  The handler table is cleared and a closed flag
        raised *before* unregistering, so a frame already inside the
        backend (a socket read racing the shutdown) is dropped rather
        than dispatched; the backend then tears down its listening
        socket, live connections and pending requests, so a socket
        backend can never leak connections past ``close()``.
        """
        if self._closed:
            return
        self._closed = True
        self._handlers.clear()
        self._default_handler = None
        self.net.unregister(self.address)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- handler registry ----------------------------------------------------

    def on(self, msg_type: str, handler: MessageHandler) -> None:
        if msg_type in self._handlers:
            raise JxtaError(f"handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    def on_default(self, handler: MessageHandler) -> None:
        self._default_handler = handler

    def handled_types(self) -> tuple[str, ...]:
        """The message types this endpoint dispatches, sorted.

        Public so protocol-aware tooling (the scenario engine's
        frame-storm adversary, catalogue drift checks) can target only
        frames the endpoint will actually route.
        """
        return tuple(sorted(self._handlers))

    # -- lifecycle hook plumbing ---------------------------------------------

    def _fire_connect(self, peer: str) -> None:
        if self._on_connect is not None and not self._closed:
            self._on_connect(peer)

    def _fire_close(self, peer: str) -> None:
        if self._on_close is not None:
            self._on_close(peer)

    # -- receive path ----------------------------------------------------------

    def _on_frame(self, frame: Frame) -> bytes | None:
        if self._closed:
            self.metrics.incr("rx.closed")
            return None
        try:
            plain = self.transport.unwrap(frame.payload, peer=frame.src,
                                          local=self.address)
            message = Message.from_wire(plain)
        except (JxtaError, TransportError) as exc:
            # Undecodable traffic is dropped, as a real stack would.
            self.metrics.incr("rx.undecodable")
            self.metrics.incr(f"rx.undecodable.{type(exc).__name__}")
            if self._wire is not None and isinstance(exc, FrameTooLargeError):
                self._wire.count_oversize()
            return None
        if self._wire is not None and not self._wire.check(message):
            self.metrics.incr("rx.rejected")
            return None
        self.metrics.incr("rx.messages")
        if self._on_receive is not None:
            self._on_receive(message, frame.src)
        handler = self._handlers.get(message.msg_type, self._default_handler)
        if handler is None:
            self.metrics.incr("rx.unhandled")
            return None
        response = handler(message, frame.src)
        if response is None:
            return None
        return self.transport.wrap(response.to_wire(), peer=frame.src,
                                   local=self.address)

    # -- send path ---------------------------------------------------------------

    def send(self, dst: str, message: Message) -> bool:
        """Best-effort one-way message (pipe semantics)."""
        if self._closed:
            raise NetworkError(f"endpoint {self.address!r} is closed")
        wire = self.transport.wrap(message.to_wire(), peer=dst, local=self.address)
        self.metrics.incr("tx.messages")
        self.metrics.incr("tx.bytes", len(wire))
        return self.net.send(self.address, dst, wire)

    def request(self, dst: str, message: Message) -> Message:
        """Round-trip request/response exchange.

        Raises :class:`NetworkError` on drop and :class:`JxtaError` on an
        undecodable response.
        """
        if self._closed:
            raise NetworkError(f"endpoint {self.address!r} is closed")
        wire = self.transport.wrap(message.to_wire(), peer=dst, local=self.address)
        self.metrics.incr("tx.requests")
        self.metrics.incr("tx.bytes", len(wire))
        raw = self.net.request(self.address, dst, wire)
        plain = self.transport.unwrap(raw, peer=dst, local=self.address)
        try:
            return Message.from_wire(plain)
        except FrameTooLargeError:
            if self._wire is not None:
                self._wire.count_oversize()
            raise
