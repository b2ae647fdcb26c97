"""Link-layer send scheduling: bounded queues, batching, compression.

Every overlay primitive used to cost one wire unit per frame: the TCP
backend issued one ``writer.write`` per datagram and the simulator one
delivery per :meth:`~repro.sim.network.SimNetwork.send`.  This module
adds the missing link layer between "the overlay wants this frame
sent" and "bytes hit the wire":

* **per-destination bounded send queues** — frames to one ``(src,
  dst)`` link coalesce into a single BATCH wire unit
  (:func:`repro.net.framing.encode_batch_payload`), capped by
  :attr:`LinkPolicy.max_batch_frames` / ``max_batch_bytes``;
* **adaptive flush** (the xpra batch/delay shape) — an idle link
  flushes immediately, a busy one widens its coalescing window as
  queue depth grows (:meth:`LinkPolicy.delay_for`);
* **negotiated compression** — a zlib level agreed per link in the
  ``link_caps_req/ok`` capability exchange
  (:meth:`LinkScheduler.set_link_compression`) is applied to batch
  payloads above :attr:`LinkPolicy.min_compress_bytes`;
* **explicit backpressure** — a full queue either force-flushes
  ("defer": the producer pays the flush latency) or drops the newest
  frame ("drop"); either way the link's circuit breaker is fed, so a
  dead destination trips :class:`~repro.errors.CircuitOpenError`
  fail-fast instead of buffering without bound.

The scheduler is transport-agnostic: backends inject ``send_single``
(one-frame wire unit, byte-identical to the pre-batching path) and
``send_batch`` (one coalesced wire unit) callbacks, plus an optional
``defer(delay, callback)`` timer hook (the TCP backend arms
``loop.call_later``; the simulator drains queues deterministically at
the outermost network-operation boundary instead).  The callbacks run
under the scheduler lock, so flushes are serialized.  The TCP backend's
callbacks post the unit to its event loop and return when the link's
connection is open and below its write-buffer high-water mark, so the
lock is held for one encode and one post; on a first connect or above
the mark they block until the loop has written and drained (socket
backpressure reaches the producer there).  The simulator's callbacks
deliver in place.  ``net.queue.depth`` is a running count, O(1) per
send.

Each transport has at most one scheduler, shared by every endpoint
registered on it, with queues, compression levels and breakers keyed
by link; ``configure_links`` only sets its policy (and breaker
factory), and :meth:`LinkScheduler.forget` drops an endpoint's links
when it unregisters.  A :class:`~repro.sim.network.SimNetwork` builds
its scheduler with the network: it is what keeps a datagram from
re-entering a running handler.  A :class:`~repro.net.tcp.TcpTransport`
builds one on the first ``configure_links`` only, because an
always-on scheduler measured about +50% p90 latency on sockets.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import CircuitOpenError
from repro.net import framing

@dataclass(frozen=True)
class LinkPolicy:
    """Tuning knobs for one transport's link scheduler."""

    #: most frames one BATCH wire unit may carry
    max_batch_frames: int = 16
    #: most payload bytes one BATCH wire unit may carry
    max_batch_bytes: int = 65536
    #: coalescing window for a queue holding one frame (seconds)
    base_delay_s: float = 0.002
    #: ceiling the window widens toward as depth grows (seconds)
    max_delay_s: float = 0.02
    #: a link quiet for this long flushes its next frame immediately
    idle_flush_s: float = 0.002
    #: bound on queued frames per link before the overflow policy fires
    max_queue_frames: int = 256
    #: "defer" force-flushes (producer pays), "drop" sheds the newest
    overflow: str = "defer"
    #: default zlib level offered in capability negotiation (0 = off)
    compress_level: int = 0
    #: batches smaller than this never compress
    min_compress_bytes: int = 512
    #: advertisements per anti-entropy delta frame (federation sync)
    delta_batch: int = 32

    def __post_init__(self) -> None:
        if not 1 <= self.max_batch_frames <= framing.MAX_BATCH_FRAMES:
            raise ValueError(
                f"max_batch_frames must be in [1, {framing.MAX_BATCH_FRAMES}]")
        if self.max_queue_frames < 1:
            raise ValueError("max_queue_frames must be positive")
        if self.overflow not in ("defer", "drop"):
            raise ValueError(f"unknown overflow policy {self.overflow!r}")
        if not 0 <= self.compress_level <= 9:
            raise ValueError("compress_level must be a zlib level (0..9)")
        if self.delta_batch < 1:
            raise ValueError("delta_batch must be positive")

    def delay_for(self, depth: int) -> float:
        """Coalescing window for a queue ``depth`` frames deep.

        Grows linearly with depth from ``base_delay_s`` to
        ``max_delay_s`` — a backlogged link waits longer and ships
        bigger units, an almost-idle one stays low-latency.
        """
        return min(self.max_delay_s, self.base_delay_s * max(1, depth))


#: Backend callback shipping one wire unit: (src, dst, payload) -> delivered.
SendUnit = Callable[[str, str, bytes], bool]

_M_ENQUEUED = obs.InternedCounter("net.queue.enqueued")
_M_DROP = obs.InternedCounter("net.queue.drop")
_M_DEFER = obs.InternedCounter("net.queue.defer")
_M_FLUSH = obs.InternedCounter("net.queue.flush")
_M_BATCH_UNITS = obs.InternedCounter("net.batch.units")
_M_BATCH_FRAMES = obs.InternedHistogram("net.batch.frames")
_M_C_UNITS = obs.InternedCounter("net.compress.units")
_M_C_IN = obs.InternedCounter("net.compress.bytes_in")
_M_C_OUT = obs.InternedCounter("net.compress.bytes_out")
_M_C_RATIO = obs.InternedHistogram("net.compress.ratio")


class _LinkQueue:
    """Pending frames for one (src, dst) link."""

    __slots__ = ("frames", "bytes", "first_at", "last_at")

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.bytes = 0
        self.first_at = 0.0
        self.last_at: float | None = None


class LinkScheduler:
    """Per-link send queues with adaptive flush for one transport.

    Thread-safe: the TCP backend enqueues from worker threads and
    pumps from timer callbacks; the simulator is single-threaded and
    pays one uncontended RLock acquire per send.
    """

    def __init__(self, policy: LinkPolicy, *,
                 clock_now: Callable[[], float],
                 send_single: SendUnit,
                 send_batch: SendUnit,
                 breaker_factory: Callable[[str], object] | None = None,
                 defer: Callable[[float, Callable[[], None]], None] | None = None) -> None:
        self.policy = policy
        self._now = clock_now
        self._send_single = send_single
        self._send_batch = send_batch
        self._breaker_factory = breaker_factory
        self._defer = defer
        self._lock = threading.RLock()
        self._queues: dict[tuple[str, str], _LinkQueue] = {}
        self._breakers: dict[str, object] = {}
        self._levels: dict[tuple[str, str], int] = {}
        self._cork_depth = 0
        #: frames queued over all links (the ``net.queue.depth`` gauge)
        self._depth = 0
        #: links being shipped right now (non-empty only mid-flush)
        self._flushing: set[tuple[str, str]] = set()

    def configure(self, policy: LinkPolicy,
                  breaker_factory: Callable[[str], object] | None = None) -> None:
        """Swap in ``policy`` and a given ``breaker_factory``; keep all link state."""
        with self._lock:
            self.policy = policy
            if breaker_factory is not None:
                self._breaker_factory = breaker_factory

    def forget(self, address: str) -> None:
        """Drop every queue, level and breaker of an unregistered endpoint."""
        with self._lock:
            dropped = 0
            for link in [link for link in self._queues if address in link]:
                dropped += len(self._queues.pop(link).frames)
            for link in [link for link in self._levels if address in link]:
                del self._levels[link]
            self._breakers.pop(address, None)
            if dropped:
                self._add_depth(-dropped)

    @property
    def link_count(self) -> int:
        """Queue, level and breaker entries held (``forget`` bounds them)."""
        return len(self._queues) + len(self._levels) + len(self._breakers)

    # -- negotiation ---------------------------------------------------------

    def set_link_compression(self, src: str, dst: str, level: int) -> None:
        """Record the zlib level negotiated for the ``src -> dst`` link."""
        if not 0 <= level <= 9:
            raise ValueError("negotiated level must be a zlib level (0..9)")
        with self._lock:
            self._levels[(src, dst)] = level

    def link_compression(self, src: str, dst: str) -> int:
        return self._levels.get((src, dst), 0)

    # -- corking -------------------------------------------------------------

    @contextmanager
    def corked(self):
        """Hold flushes open for the duration (burst coalescing)."""
        with self._lock:
            self._cork_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._cork_depth -= 1
                if self._cork_depth == 0:
                    self.flush_all()

    @property
    def corked_now(self) -> bool:
        return self._cork_depth > 0

    # -- queueing ------------------------------------------------------------

    def _breaker(self, dst: str):
        if self._breaker_factory is None:
            return None
        breaker = self._breakers.get(dst)
        if breaker is None:
            breaker = self._breakers[dst] = self._breaker_factory(dst)
        return breaker

    def _add_depth(self, delta: int) -> None:
        self._depth += delta
        obs.get_registry().set_gauge("net.queue.depth", self._depth)

    def enqueue(self, src: str, dst: str, payload: bytes,
                coalesce: bool | None = None) -> bool:
        """Accept one datagram for ``src -> dst``.

        ``coalesce`` — ``True`` queues, ``False`` flushes the link now
        (the new frame rides along), ``None`` applies the idle
        heuristic: a link quiet for ``idle_flush_s`` flushes
        immediately, a busy one queues.  Corking always queues, except
        when the bounded queue overflows.

        Returns the delivery result when the call flushed
        synchronously, ``True`` when the frame was queued, ``False``
        when it was shed (open breaker or overflow-drop).
        """
        with self._lock:
            breaker = self._breaker(dst)
            if breaker is not None:
                try:
                    breaker.before_call()
                except CircuitOpenError:
                    _M_DROP.incr()
                    return False
            now = self._now()
            queue = self._queues.get((src, dst))
            if queue is None:
                queue = self._queues[(src, dst)] = _LinkQueue()
            if self._cork_depth > 0:
                coalesce = True
            elif coalesce is None:
                coalesce = bool(queue.frames) or (
                    queue.last_at is not None
                    and now - queue.last_at < self.policy.idle_flush_s)
            _M_ENQUEUED.incr()
            if len(queue.frames) >= self.policy.max_queue_frames:
                if self.policy.overflow == "drop":
                    _M_DROP.incr()
                    if breaker is not None:
                        breaker.record_failure()
                    queue.last_at = now
                    return False
                _M_DEFER.incr()
                if breaker is not None:
                    breaker.record_failure()
                self._flush_queue(src, dst, queue)
            if not queue.frames:
                queue.first_at = now
            queue.frames.append(bytes(payload))
            queue.bytes += len(payload)
            queue.last_at = now
            self._add_depth(1)
            if not coalesce:
                return self._flush_queue(src, dst, queue)
            if (len(queue.frames) >= self.policy.max_batch_frames
                    or queue.bytes >= self.policy.max_batch_bytes):
                return self._flush_queue(src, dst, queue)
            if self._defer is not None:
                deadline = queue.first_at + self.policy.delay_for(
                    len(queue.frames))
                self._defer(max(0.0, deadline - now), self.pump)
            return True

    # -- flushing ------------------------------------------------------------

    def _flush_queue(self, src: str, dst: str, queue: _LinkQueue,
                     barrier: bool = False) -> bool:
        """Ship everything queued on one link, in units within the caps."""
        link = (src, dst)
        # Mid-flush (a delivery ran a handler) only a request's barrier
        # ships, and never on the link that is being shipped already.
        if link in self._flushing or (self._flushing and not barrier):
            return True
        self._flushing.add(link)
        try:
            delivered = True
            while queue.frames:
                take, size = 0, 0
                for payload in queue.frames:
                    if take and (take >= self.policy.max_batch_frames
                                 or size + len(payload) > self.policy.max_batch_bytes):
                        break
                    take += 1
                    size += len(payload)
                unit, queue.frames = queue.frames[:take], queue.frames[take:]
                queue.bytes -= size
                self._add_depth(-take)
                delivered = self._ship(src, dst, unit, size) and delivered
            queue.first_at = 0.0
            _M_FLUSH.incr()
            return delivered
        finally:
            self._flushing.discard(link)

    def _ship(self, src: str, dst: str, unit: list[bytes], size: int) -> bool:
        if len(unit) == 1:
            ok = self._send_single(src, dst, unit[0])
        else:
            level = self.link_compression(src, dst)
            payload = framing.encode_batch_payload(
                unit, compress_level=level,
                min_compress_bytes=self.policy.min_compress_bytes)
            _M_BATCH_UNITS.incr()
            _M_BATCH_FRAMES.observe(len(unit))
            if payload and payload[0] & framing.BATCH_FLAG_ZLIB:
                _M_C_UNITS.incr()
                _M_C_IN.incr(size)
                _M_C_OUT.incr(len(payload))
                _M_C_RATIO.observe(len(payload) / max(1, size))
            ok = self._send_batch(src, dst, payload)
        breaker = self._breaker(dst)
        if breaker is not None:
            if ok:
                breaker.record_success()
            else:
                breaker.record_failure()
        return ok

    def pump(self) -> None:
        """Flush every queue whose coalescing window has expired."""
        with self._lock:
            if self._cork_depth > 0 or self._flushing:
                return
            now = self._now()
            for (src, dst), queue in list(self._queues.items()):
                if not queue.frames:
                    continue
                deadline = queue.first_at + self.policy.delay_for(
                    len(queue.frames))
                if now >= deadline:
                    self._flush_queue(src, dst, queue)
                elif self._defer is not None:
                    self._defer(deadline - now, self.pump)

    def flush_all(self) -> None:
        """Ship every queued frame now (cork exit, transport drain).

        Repeats until every queue is empty: on the simulator a delivery
        runs the receiving handler, and what that handler sends may land
        on a queue this pass has already visited.
        """
        with self._lock:
            if self._flushing:
                return
            while True:
                pending = [(link, queue) for link, queue in self._queues.items()
                           if queue.frames]
                if not pending:
                    return
                for (src, dst), queue in pending:
                    self._flush_queue(src, dst, queue)

    def flush_link(self, src: str, dst: str) -> None:
        """Ship one link's queue (ordering barrier before a request)."""
        with self._lock:
            queue = self._queues.get((src, dst))
            if queue is not None and queue.frames:
                self._flush_queue(src, dst, queue, barrier=True)

    def flush_for(self, address: str) -> None:
        """Ship everything an endpoint queued (it is unregistering)."""
        with self._lock:
            if self._flushing:
                return
            for (src, dst), queue in list(self._queues.items()):
                if src == address and queue.frames:
                    self._flush_queue(src, dst, queue)

    def pending_frames(self, src: str | None = None) -> int:
        """Queued frame count (all links, or one endpoint's)."""
        if src is None:
            return self._depth
        with self._lock:
            return sum(len(q.frames) for (qsrc, _), q in self._queues.items()
                       if qsrc == src)
