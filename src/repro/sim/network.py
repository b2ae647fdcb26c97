"""The simulated network: addressed endpoints, taps, and interceptors.

Entities register a handler under an address.  Two delivery styles exist:

* :meth:`SimNetwork.send` — one-way datagram (used by advertisement
  broadcast and pipe messages),
* :meth:`SimNetwork.request` — synchronous round trip (used by the
  connect/login exchanges, which are request/response shaped in
  JXTA-Overlay).

Both styles move **serialized bytes**, never Python object references —
so anything an eavesdropper tap observes is exactly what a real wire
would carry, and an interceptor can only mount the attacks a real
man-in-the-middle could (replay, modify, redirect, drop).

Security-evaluation hooks:

* **taps** observe every frame (passive eavesdropper, §2.3 threat 1);
* **interceptors** may rewrite/redirect/drop frames (fake broker via DNS
  spoofing, §2.3 threat 3, and message tampering, threat 2).

:class:`SimNetwork` is itself a :class:`~repro.net.base.Transport`, so
every endpoint on a simulated world shares one network object, exactly
as every endpoint of a process shares one
:class:`~repro.net.tcp.TcpTransport`:

* **lifecycle hooks** — there is no socket to accept, so "connect" is
  synthesized from the first frame a peer delivers to a registration,
  and every peer seen is "closed" at unregister time, which is when a
  socket backend would drop the connections of a vanishing endpoint;
* **link scheduling** — one :class:`~repro.net.linkq.LinkScheduler`,
  built with the network, sits between :meth:`send` and delivery.
  Datagrams sent *inside* a handler or under :meth:`corked` queue and
  coalesce into one simulated delivery per BATCH wire unit (taps,
  interceptors and the link model see one frame, as a socket would
  carry it), drained when the outermost operation completes.  So a
  datagram reaches a handler only after that handler's running call
  returns, as on a socket; only a nested request's ordering barrier
  can ship one sooner, and :attr:`SimNetwork.reentrant_deliveries`
  counts those.  Nested *requests* run inside the requesting handler.
  Top-level sends outside a cork ship at once as single-frame units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.errors import NetworkError
from repro.net import adversary
from repro.net.adversary import Interceptor, Tap
from repro.net.base import Frame, PeerHook
from repro.net.base import FrameHandler as Handler
from repro.sim.clock import VirtualClock
from repro.sim.latency import LAN_2009, LinkModel

if TYPE_CHECKING:
    from repro.net.linkq import LinkPolicy, LinkScheduler

__all__ = ["Frame", "Handler", "Interceptor", "SIM_BATCH_MAGIC", "SimNetwork",
           "Tap"]

#: Prefix marking a simulated BATCH wire unit.  Serialized overlay
#: messages are JSON or sealed-envelope bytes and never start with a
#: NUL byte, so the tag cannot collide with a real payload.
SIM_BATCH_MAGIC = b"\x00repro:batch\x01"


#: Per-frame instruments, resolved once instead of per record() call.
_M_FRAMES_SENT = obs.InternedCounter("net.frames_sent")
_M_BYTES_SENT = obs.InternedCounter("net.bytes_sent")
_M_FRAME_BYTES = obs.InternedHistogram("net.frame_bytes")
_M_FRAMES_DELIVERED = obs.InternedCounter("net.frames_delivered")
_M_FRAMES_DROPPED = obs.InternedCounter("net.frames_dropped")


def _record(frame: Frame, delivered: bool) -> None:
    """Count one frame put on a link (the bench reads traffic from here)."""
    _M_FRAMES_SENT.incr()
    _M_BYTES_SENT.incr(frame.size)
    _M_FRAME_BYTES.observe(frame.size)
    if delivered:
        _M_FRAMES_DELIVERED.incr()
    else:
        _M_FRAMES_DROPPED.incr()
        obs.emit("on_frame_dropped", src=frame.src, dst=frame.dst,
                 n_bytes=frame.size)


class SimNetwork:
    """A star network: every pair of endpoints shares one link model."""

    def __init__(self, clock: VirtualClock | None = None,
                 link: LinkModel = LAN_2009,
                 jitter_draw: Callable[[], float] | None = None,
                 loss_draw: Callable[[], float] | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.default_link = link
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._handlers: dict[str, Handler] = {}
        #: per-address lifecycle state: (on_close, peers seen so far)
        self._lifecycles: dict[str, tuple[PeerHook | None, set[str]]] = {}
        self._taps: list[Tap] = []
        self._interceptors: list[Interceptor] = []
        self._jitter_draw = jitter_draw
        self._loss_draw = loss_draw
        #: nesting depth of in-flight send/request calls (drain boundary)
        self._op_depth = 0
        #: addresses whose handler is running, innermost last
        self._running: list[str] = []
        #: datagrams delivered to an address whose handler was running
        self.reentrant_deliveries = 0
        # linkq is imported where it is used: repro.net.framing imports
        # repro.jxta, which imports this package back.
        from repro.net import linkq

        #: the one link scheduler every datagram goes through
        self.scheduler: LinkScheduler = linkq.LinkScheduler(
            linkq.LinkPolicy(),
            clock_now=lambda: self.clock.now,
            send_single=self._transmit,
            send_batch=lambda src, dst, payload: self._transmit(
                src, dst, SIM_BATCH_MAGIC + payload))

    # -- topology -----------------------------------------------------------

    def register(self, address: str, handler: Handler, *,
                 on_connect: PeerHook | None = None,
                 on_close: PeerHook | None = None) -> None:
        """Attach an endpoint; raises if the address is taken."""
        if address in self._handlers:
            raise NetworkError(f"address {address!r} is already registered")
        if on_connect is not None or on_close is not None:
            seen: set[str] = set()
            self._lifecycles[address] = (on_close, seen)
            handler = _hooked(handler, on_connect, seen)
        self._handlers[address] = _split_batches(handler)
        obs.get_registry().set_gauge("net.endpoints", len(self._handlers))

    def unregister(self, address: str) -> None:
        """Detach an endpoint: ship its queue, drop its links, close its peers."""
        self.scheduler.flush_for(address)
        self._drain()
        self.scheduler.forget(address)
        lifecycle = self._lifecycles.pop(address, None)
        self._handlers.pop(address, None)
        obs.get_registry().set_gauge("net.endpoints", len(self._handlers))
        if lifecycle is not None:
            on_close, seen = lifecycle
            if on_close is not None:
                for peer in sorted(seen):
                    on_close(peer)

    def is_registered(self, address: str) -> bool:
        return address in self._handlers

    def set_link(self, src: str, dst: str, link: LinkModel,
                 symmetric: bool = True) -> None:
        """Override the link model for a specific pair."""
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def link_for(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self.default_link)

    # -- adversary hooks ------------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)

    # -- link scheduling -------------------------------------------------------

    def configure_links(self, policy: LinkPolicy | None = None, *,
                        breaker_factory=None) -> LinkScheduler:
        """Set the policy (and, given a factory, the breakers) of the scheduler.

        Queues, negotiated compression levels and the breakers already
        built survive, so one node enabling batching never drops the
        link state another node already negotiated.
        """
        from repro.net import linkq

        self.scheduler.configure(
            policy if policy is not None else linkq.LinkPolicy(),
            breaker_factory=breaker_factory)
        return self.scheduler

    def corked(self):
        """Batch every send inside the context into shared wire units."""
        return self.scheduler.corked()

    def set_link_compression(self, src: str, dst: str, level: int) -> None:
        self.scheduler.set_link_compression(src, dst, level)

    def _end_op(self) -> None:
        self._op_depth -= 1
        self._drain()

    def _drain(self) -> None:
        """Ship every queued frame once no operation is in flight."""
        if self._op_depth == 0 and not self.scheduler.corked_now:
            self.scheduler.flush_all()

    # -- delivery -------------------------------------------------------------

    def _through_adversaries(self, frame: Frame) -> Frame | None:
        return adversary.run_chain(self._taps, self._interceptors, frame)

    def _transit(self, frame: Frame) -> bool:
        """Model the link crossing; returns False when the frame is lost."""
        link = self.link_for(frame.src, frame.dst)
        if self._loss_draw is not None and link.is_lost(self._loss_draw):
            return False
        self.clock.advance_network(link.transit_time(frame.size, self._jitter_draw))
        return True

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        """One-way delivery.  Returns ``True`` if the frame was delivered.

        Raises :class:`NetworkError` only for an unknown *original*
        destination; adversarial drops and link loss return ``False`` —
        datagrams are best-effort, exactly like JXTA pipe messages.
        A frame sent inside a handler or a cork is queued instead, and
        ``True`` means it was accepted.
        """
        if dst not in self._handlers:
            raise NetworkError(f"no endpoint registered at {dst!r}")
        # Coalesce only where delivery order stays observable: inside a
        # handler of an in-flight network op (drained before the
        # outermost call returns) or under an explicit cork.
        accepted = self.scheduler.enqueue(src, dst, payload,
                                          coalesce=self._op_depth > 0)
        # What the receiving handlers queued while this frame was
        # flushed must not wait for the next operation.
        self._drain()
        return accepted

    def _transmit(self, src: str, dst: str, payload: bytes) -> bool:
        """Put one wire unit on the link and deliver it.

        A destination that vanished after the unit was queued is a
        best-effort datagram loss, not a caller error.
        """
        if dst not in self._handlers:
            return False
        self._op_depth += 1
        try:
            frame = Frame(src=src, dst=dst, payload=bytes(payload), sent_at=self.clock.now)
            out = self._through_adversaries(frame)
            if out is None or out.dst not in self._handlers:
                _record(frame, delivered=False)
                return False
            if not self._transit(out):
                _record(out, delivered=False)
                return False
            _record(out, delivered=True)
            if out.dst in self._running:
                self.reentrant_deliveries += 1
            self._deliver(out)
            return True
        finally:
            self._end_op()

    def request(self, src: str, dst: str, payload: bytes) -> bytes:
        """Round-trip exchange; returns the responder's bytes.

        The handler's real CPU time is charged to the virtual clock via
        :meth:`VirtualClock.cpu_section`.  Raises :class:`NetworkError`
        when the request or the response is dropped or unanswered.
        """
        # Ordering barrier: datagrams queued to this link must hit the
        # wire before the request does.
        self.scheduler.flush_link(src, dst)
        if dst not in self._handlers:
            raise NetworkError(f"no endpoint registered at {dst!r}")
        self._op_depth += 1
        try:
            frame = Frame(src=src, dst=dst, payload=bytes(payload), sent_at=self.clock.now)
            out = self._through_adversaries(frame)
            if out is None or out.dst not in self._handlers:
                _record(frame, delivered=False)
                raise NetworkError(f"request from {src!r} to {dst!r} was dropped")
            if not self._transit(out):
                _record(out, delivered=False)
                raise NetworkError(f"request from {src!r} to {dst!r} was lost in transit")
            _record(out, delivered=True)
            with self.clock.cpu_section():
                response = self._deliver(out)
            if response is None:
                raise NetworkError(f"endpoint {out.dst!r} did not answer the request")
            back = Frame(src=out.dst, dst=src, payload=bytes(response), sent_at=self.clock.now)
            back_out = self._through_adversaries(back)
            if back_out is None:
                _record(back, delivered=False)
                raise NetworkError(f"response from {out.dst!r} to {src!r} was dropped")
            if not self._transit(back_out):
                _record(back_out, delivered=False)
                raise NetworkError(f"response from {out.dst!r} to {src!r} was lost in transit")
            _record(back_out, delivered=True)
            return back_out.payload
        finally:
            self._end_op()

    def _deliver(self, frame: Frame) -> bytes | None:
        """Run the destination's handler, tracking which ones are running."""
        self._running.append(frame.dst)
        try:
            return self._handlers[frame.dst](frame)
        finally:
            self._running.pop()


def _hooked(handler: Handler, on_connect: PeerHook | None,
            seen: set[str]) -> Handler:
    """Fire ``on_connect`` on the first frame from each peer."""

    def hooked(frame: Frame) -> bytes | None:
        if frame.src not in seen:
            seen.add(frame.src)
            if on_connect is not None:
                on_connect(frame.src)
        return handler(frame)

    return hooked


def _split_batches(handler: Handler) -> Handler:
    """Unwrap BATCH wire units back into per-frame handler calls."""

    def split(frame: Frame) -> bytes | None:
        if not frame.payload.startswith(SIM_BATCH_MAGIC):
            return handler(frame)
        from repro.net import framing

        payloads = framing.decode_batch_payload(
            frame.payload[len(SIM_BATCH_MAGIC):])
        for payload in payloads:
            handler(Frame(src=frame.src, dst=frame.dst,
                          payload=payload, sent_at=frame.sent_at))
        return None

    return split
