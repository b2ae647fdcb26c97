"""The simulator as a :class:`~repro.net.base.Transport` backend.

A thin adapter: delivery, adversary hooks, link models and the virtual
clock all stay in :class:`~repro.sim.network.SimNetwork`; this class
only adds the per-registration connect/close lifecycle bookkeeping the
transport contract promises.  On a simulated star network there is no
socket to accept, so "connect" is synthesized from the first frame a
peer delivers here, and every known peer is "closed" at unregister
time — which is exactly when a socket backend would drop the
connections of a disappearing endpoint.

With :meth:`SimTransport.configure_links` a link scheduler
(:class:`~repro.net.linkq.LinkScheduler`) sits between :meth:`send`
and the network: datagrams issued *inside* a handler (the window
:attr:`SimNetwork.op_depth` exposes) or under :meth:`corked` coalesce
into one simulated delivery per BATCH wire unit — taps, interceptors
and the link model see the batch as a single frame, exactly as a
socket would carry it — and the network's outermost-operation drain
guarantees every queued frame is delivered before simulation code
regains control.  Top-level sends outside a cork flush immediately as
legacy single-frame units, so an unbatched caller cannot tell the
scheduler is there.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.errors import NetworkError
from repro.net import framing, linkq
from repro.net.base import Frame, FrameHandler, PeerHook
from repro.sim.network import SimNetwork

#: Prefix marking a simulated BATCH wire unit.  Serialized overlay
#: messages are JSON or sealed-envelope bytes and never start with a
#: NUL byte, so the tag cannot collide with a real payload.
SIM_BATCH_MAGIC = b"\x00repro:batch\x01"


class SimTransport:
    """Adapter presenting a :class:`SimNetwork` as a transport backend."""

    def __init__(self, network: SimNetwork) -> None:
        self.network = network
        self.clock = network.clock
        self.scheduler: linkq.LinkScheduler | None = None
        #: per-address lifecycle state: (on_connect, on_close, seen peers)
        self._lifecycles: dict[str, tuple[PeerHook | None, PeerHook | None,
                                          set[str]]] = {}

    # -- link scheduling -----------------------------------------------------

    def configure_links(self, policy: linkq.LinkPolicy | None = None, *,
                        breaker_factory=None) -> linkq.LinkScheduler:
        """Install (or replace) the link scheduler for this endpoint's sends."""
        self.scheduler = linkq.LinkScheduler(
            policy if policy is not None else linkq.LinkPolicy(),
            clock_now=lambda: self.clock.now,
            send_single=self._ship_unit,
            send_batch=lambda src, dst, payload: self._ship_unit(
                src, dst, SIM_BATCH_MAGIC + payload),
            breaker_factory=breaker_factory)
        self.network.add_flush_hook(self._drain_hook)
        return self.scheduler

    def _drain_hook(self) -> None:
        scheduler = self.scheduler
        if scheduler is not None and not scheduler.corked_now:
            scheduler.flush_all()

    def _ship_unit(self, src: str, dst: str, payload: bytes) -> bool:
        try:
            return self.network.send(src, dst, payload)
        except NetworkError:
            # The destination vanished after the frame was queued: a
            # best-effort datagram loss, not a caller error.
            return False

    def corked(self):
        """Batch every send inside the context into shared wire units."""
        if self.scheduler is None:
            return nullcontext()
        return self.scheduler.corked()

    def set_link_compression(self, src: str, dst: str, level: int) -> None:
        if self.scheduler is None:
            raise NetworkError("configure_links() before negotiating compression")
        self.scheduler.set_link_compression(src, dst, level)

    # -- registration --------------------------------------------------------

    def _split_batches(self, handler: FrameHandler) -> FrameHandler:
        """Unwrap BATCH wire units back into per-frame handler calls."""

        def split(frame: Frame) -> bytes | None:
            if not frame.payload.startswith(SIM_BATCH_MAGIC):
                return handler(frame)
            payloads = framing.decode_batch_payload(
                frame.payload[len(SIM_BATCH_MAGIC):])
            for payload in payloads:
                handler(Frame(src=frame.src, dst=frame.dst,
                              payload=payload, sent_at=frame.sent_at))
            return None

        return split

    def register(self, address: str, handler: FrameHandler, *,
                 on_connect: PeerHook | None = None,
                 on_close: PeerHook | None = None) -> None:
        if on_connect is None and on_close is None:
            self.network.register(address, self._split_batches(handler))
            return
        seen: set[str] = set()
        self._lifecycles[address] = (on_connect, on_close, seen)

        def hooked(frame: Frame) -> bytes | None:
            if on_connect is not None and frame.src not in seen:
                seen.add(frame.src)
                on_connect(frame.src)
            elif frame.src not in seen:
                seen.add(frame.src)
            return handler(frame)

        self.network.register(address, self._split_batches(hooked))

    def unregister(self, address: str) -> None:
        if self.scheduler is not None:
            self.scheduler.flush_for(address)
        lifecycle = self._lifecycles.pop(address, None)
        self.network.unregister(address)
        if lifecycle is not None:
            _, on_close, seen = lifecycle
            if on_close is not None:
                for peer in sorted(seen):
                    on_close(peer)

    def is_registered(self, address: str) -> bool:
        return self.network.is_registered(address)

    # -- adversary surface ---------------------------------------------------
    # Delegated: on the simulator, frames cross the network mid-wire, so
    # the hooks live there (see repro.net.adversary for the contract).

    def add_tap(self, tap) -> None:
        self.network.add_tap(tap)

    def remove_tap(self, tap) -> None:
        self.network.remove_tap(tap)

    def add_interceptor(self, interceptor) -> None:
        self.network.add_interceptor(interceptor)

    def remove_interceptor(self, interceptor) -> None:
        self.network.remove_interceptor(interceptor)

    # -- delivery ------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        scheduler = self.scheduler
        if scheduler is None:
            return self.network.send(src, dst, payload)
        if not self.network.is_registered(dst):
            raise NetworkError(f"no endpoint registered at {dst!r}")
        # Coalesce only where delivery order stays observable: inside a
        # handler of an in-flight network op (drained before the
        # outermost call returns) or under an explicit cork.
        return scheduler.enqueue(src, dst, payload,
                                 coalesce=self.network.op_depth > 0)

    def request(self, src: str, dst: str, payload: bytes) -> bytes:
        if self.scheduler is not None:
            # Ordering barrier: datagrams queued to this link must hit
            # the wire before the request does.
            self.scheduler.flush_link(src, dst)
        return self.network.request(src, dst, payload)
