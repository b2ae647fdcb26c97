"""Real sockets: an asyncio TCP :class:`~repro.net.base.Transport`.

One ``TcpTransport`` owns a background asyncio event loop (daemon
thread).  Every registered endpoint address gets its **own listening
socket** on ``host`` (an OS-assigned port by default), recorded in an
address directory so logical overlay addresses ("broker:0",
"peer:alice") resolve to ``host:port`` pairs; :meth:`add_route` seeds
the directory for endpoints living in other processes.

Threading model — the part that makes synchronous overlay code work
over real sockets:

* the **event loop thread** only moves bytes (accept, read, write);
* every **handler dispatch** runs on a worker-thread pool, so a broker
  function may itself issue blocking :meth:`request` calls mid-handler
  (the federation link handshake does exactly this: the responder
  digest-syncs *back at the initiator* while the initiator is still
  blocked in ``fed_link_req``) without stalling the loop;
* ``REQUEST`` frames dispatch as independent tasks — concurrent
  requests on one connection are multiplexed by ``request_id`` — while
  ``DATA`` frames dispatch sequentially per connection, preserving the
  per-link datagram ordering the simulator provides;
* outbound writes come in two kinds.  The link scheduler's wire units
  and the ``REQUEST`` leg of :meth:`request` are **posted**: on a link
  whose pooled connection is open and whose write buffer is below the
  asyncio transport's high-water mark, the calling thread encodes the
  frame, hands ``writer.write`` to the loop and returns, so a flush
  holds the scheduler lock for one encode, not a loop round trip, and
  a requester waits only for the response.  Everything else **blocks**
  until the loop has written and drained: a first connect, a link over
  the high-water mark (drain backpressure), and the unscheduled
  datagram of :meth:`send`.  That last one could post too, but it would
  shorten E-E2E ``e2_sweep``'s plain phase below the benchmark speed
  probe's sampling interval; it waits for the probe fix (ROADMAP item
  9).  Per-link order holds either way: the one loop runs posted
  writes FIFO, a blocking write returns only once written, and the
  scheduler lock serializes flushes.  A posted frame whose connection
  closed before the loop reached it counts in ``net.tcp.frames_dropped``
  (and fails its request at once).

Delivery semantics match the simulator contract: :meth:`send` raises
:class:`~repro.errors.NetworkError` for an address the directory does
not know and returns ``False`` when the connection fails (best-effort
datagram); :meth:`request` raises :class:`NetworkError` on connection
failure, timeout, or a responder that answered nothing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import struct
import threading
from dataclasses import dataclass, field

from contextlib import nullcontext

from repro import obs
from repro.errors import NetworkError
from repro.net import framing, linkq
from repro.net.base import Frame, FrameHandler, PeerHook
from repro.net.clock import WallClock

#: how long ``close()`` waits for the loop thread to wind down
_SHUTDOWN_GRACE = 5.0


async def _abort(writers: list[asyncio.StreamWriter]) -> None:
    """Drop connections at once, discarding bytes they still buffer.

    Used when the loop is about to stop: those bytes would never be
    written, and a transport left "closing" would leak its socket.
    """
    for writer in writers:
        writer.transport.abort()
    await asyncio.sleep(0)  # let the transports' connection_lost run


@dataclass
class _EndpointState:
    """Everything the transport tracks for one registered address."""

    handler: FrameHandler
    on_connect: PeerHook | None
    on_close: PeerHook | None
    server: asyncio.AbstractServer | None = None
    #: inbound connection writers (server side), for drain-on-unregister
    inbound: set[asyncio.StreamWriter] = field(default_factory=set)


class _Conn:
    """One pooled outbound connection (src endpoint -> dst address)."""

    def __init__(self, src: str, dst: str, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.src = src
        self.dst = dst
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.pending: set[int] = set()  # request ids in flight on this conn
        self.reader_task: asyncio.Task | None = None
        #: bytes handed to the loop by ``_post_frame`` and not yet written
        self.posted = 0
        self.posted_lock = threading.Lock()


class TcpTransport:
    """Length-prefix-framed overlay frames over 127.0.0.1 (or any host)."""

    def __init__(self, host: str = "127.0.0.1", *,
                 request_timeout: float = 30.0,
                 connect_timeout: float = 5.0,
                 max_workers: int = 32) -> None:
        self.host = host
        self.clock = WallClock()
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-net")
        self._lock = threading.Lock()
        self._directory: dict[str, tuple[str, int]] = {}
        self._endpoints: dict[str, _EndpointState] = {}
        self._conns: dict[tuple[str, str], _Conn] = {}
        #: one in-flight connect per link, shared by concurrent first sends
        self._connecting: dict[tuple[str, str], asyncio.Task] = {}
        #: strong references: the event loop holds tasks only weakly
        self._reader_tasks: set[asyncio.Task] = set()
        self._pending: dict[int, tuple[concurrent.futures.Future, str]] = {}
        self._req_ids = itertools.count(1)
        self._closed = False
        self.scheduler: linkq.LinkScheduler | None = None
        self._taps: list = []
        self._interceptors: list = []

    # -- loop plumbing -----------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._closed:
                raise NetworkError("transport is closed")
            if self._loop is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=loop.run_forever, name="repro-net-loop", daemon=True)
                thread.start()
                self._loop, self._thread = loop, thread
            return self._loop

    def _run(self, coro, timeout: float | None):
        """Run ``coro`` on the loop from any other thread and wait."""
        loop = self._ensure_loop()
        future = asyncio.run_coroutine_threadsafe(coro, loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError as exc:
            future.cancel()
            raise NetworkError("transport operation timed out") from exc

    # -- link scheduling ---------------------------------------------------

    def configure_links(self, policy: linkq.LinkPolicy | None = None, *,
                        breaker_factory=None) -> linkq.LinkScheduler:
        """Build the link scheduler on first use, then set its policy.

        Opt-in on sockets: without it each datagram is one direct
        ``writer.write`` (an always-on scheduler measured about +50% p90
        latency on E-E2E ``chat``).  With it, datagrams to a busy link
        coalesce into BATCH wire units — one ``writer.write`` per flush
        — with the adaptive window armed as an event-loop timer; an idle
        link still flushes immediately.  A later call only sets
        ``policy`` and a given ``breaker_factory``; link state survives.
        """
        policy = policy if policy is not None else linkq.LinkPolicy()
        with self._lock:
            if self.scheduler is None:
                self.scheduler = linkq.LinkScheduler(
                    policy,
                    clock_now=lambda: self.clock.now,
                    send_single=lambda src, dst, payload: self._send_unit(
                        src, dst, framing.KIND_DATA, payload),
                    send_batch=lambda src, dst, payload: self._send_unit(
                        src, dst, framing.KIND_BATCH, payload),
                    defer=self._arm_flush_timer)
            self.scheduler.configure(policy, breaker_factory=breaker_factory)
            return self.scheduler

    def _arm_flush_timer(self, delay: float, callback) -> None:
        """Run ``callback`` on the worker pool after ``delay`` seconds."""

        def fire() -> None:
            try:
                self._pool.submit(callback)
            except RuntimeError:
                pass  # pool already shut down

        try:
            loop = self._ensure_loop()
        except NetworkError:
            return
        loop.call_soon_threadsafe(loop.call_later, delay, fire)

    def corked(self):
        """Batch every send inside the context into shared wire units."""
        if self.scheduler is None:
            return nullcontext()
        return self.scheduler.corked()

    def set_link_compression(self, src: str, dst: str, level: int) -> None:
        if self.scheduler is None:
            raise NetworkError("configure_links() before negotiating compression")
        self.scheduler.set_link_compression(src, dst, level)

    # -- registration ------------------------------------------------------

    def register(self, address: str, handler: FrameHandler, *,
                 on_connect: PeerHook | None = None,
                 on_close: PeerHook | None = None) -> None:
        with self._lock:
            if self._closed:
                raise NetworkError("transport is closed")
            if address in self._endpoints:
                raise NetworkError(f"address {address!r} is already registered")
            state = _EndpointState(handler=handler, on_connect=on_connect,
                                   on_close=on_close)
            self._endpoints[address] = state
        try:
            self._run(self._start_server(address, state), self.connect_timeout)
        except Exception:
            with self._lock:
                self._endpoints.pop(address, None)
            raise
        obs.get_registry().set_gauge("net.tcp.endpoints", len(self._endpoints))

    async def _start_server(self, address: str, state: _EndpointState) -> None:
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(address, state, r, w),
            self.host, 0)
        state.server = server
        port = server.sockets[0].getsockname()[1]
        with self._lock:
            self._directory[address] = (self.host, port)

    def location(self, address: str) -> tuple[str, int]:
        """The (host, port) a registered address listens on."""
        try:
            return self._directory[address]
        except KeyError:
            raise NetworkError(f"no endpoint registered at {address!r}") from None

    def add_route(self, address: str, host: str, port: int) -> None:
        """Seed the directory for an endpoint served by another process."""
        with self._lock:
            self._directory[address] = (host, port)

    def is_registered(self, address: str) -> bool:
        return address in self._directory

    # -- server side -------------------------------------------------------

    async def _serve_connection(self, address: str, state: _EndpointState,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve one inbound connection; ``close()`` cancels it quietly.

        asyncio's ``connection_made`` done-callback asks the task for
        its exception, which logs an error for a cancelled task, so the
        cancellation ends here, after ``_serve_frames`` has cleaned up.
        """
        try:
            await self._serve_frames(address, state, reader, writer)
        except asyncio.CancelledError:
            pass

    async def _serve_frames(self, address: str, state: _EndpointState,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        state.inbound.add(writer)
        write_lock = asyncio.Lock()
        peer_src: str | None = None
        request_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    head = await reader.readexactly(framing.LENGTH_BYTES)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                (length,) = struct.unpack(">I", head)
                try:
                    framing.check_length(length)
                    body = await reader.readexactly(length)
                    kind, req_id, src, payload = framing.decode_body(body)
                except framing.FramingError:
                    obs.get_registry().incr("net.tcp.bad_frames")
                    break  # unframeable stream: drop the connection
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if peer_src is None:
                    peer_src = src
                    if state.on_connect is not None:
                        await self._loop_safe_hook(state.on_connect, src)
                frame = Frame(src=src, dst=address, payload=payload,
                              sent_at=self.clock.now)
                obs.get_registry().incr("net.tcp.frames_received")
                if kind == framing.KIND_REQUEST:
                    # Independent task: a handler may block on a nested
                    # request back at this very peer (federation link
                    # handshake), so responses must multiplex by id.
                    task = asyncio.ensure_future(self._dispatch_request(
                        state, frame, req_id, writer, write_lock))
                    request_tasks.add(task)
                    task.add_done_callback(request_tasks.discard)
                elif kind == framing.KIND_DATA:
                    # Sequential per connection: datagram order on one
                    # link is preserved, exactly like the simulator.
                    await self._dispatch_data(state, frame)
                elif kind == framing.KIND_BATCH:
                    # One wire unit, several datagrams: split and
                    # dispatch sequentially so per-link order holds.
                    try:
                        inner = framing.decode_batch_payload(payload)
                    except framing.FramingError:
                        obs.get_registry().incr("net.batch.decode_errors")
                        break
                    for data in inner:
                        await self._dispatch_data(state, Frame(
                            src=src, dst=address, payload=data,
                            sent_at=self.clock.now))
                else:
                    obs.get_registry().incr("net.tcp.unexpected_kind")
        finally:
            for task in list(request_tasks):
                task.cancel()
            state.inbound.discard(writer)
            writer.close()
            if peer_src is not None and state.on_close is not None:
                # Handed over, not awaited: close() cancels this task, and
                # that must not cancel a hook no worker has picked up yet.
                try:
                    self._pool.submit(self._run_hook, state.on_close, peer_src)
                except RuntimeError:
                    pass  # pool already shut down

    async def _loop_safe_hook(self, hook: PeerHook, peer: str) -> None:
        """Run a lifecycle hook on the pool so it may touch the overlay."""
        await asyncio.get_running_loop().run_in_executor(
            self._pool, self._run_hook, hook, peer)

    @staticmethod
    def _run_hook(hook: PeerHook, peer: str) -> None:
        try:
            hook(peer)
        except Exception:
            obs.get_registry().incr("net.tcp.hook_errors")

    async def _dispatch_data(self, state: _EndpointState, frame: Frame) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._pool, state.handler, frame)
        except Exception:
            obs.get_registry().incr("net.tcp.handler_errors")

    async def _dispatch_request(self, state: _EndpointState, frame: Frame,
                                req_id: int, writer: asyncio.StreamWriter,
                                write_lock: asyncio.Lock) -> None:
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                self._pool, state.handler, frame)
        except Exception as exc:
            obs.get_registry().incr("net.tcp.handler_errors")
            response = None
            reason = f"handler failed: {type(exc).__name__}"
        else:
            reason = f"endpoint {frame.dst!r} did not answer the request"
        try:
            if response is None:
                out = framing.encode_frame(
                    framing.KIND_ERROR, req_id, frame.dst,
                    reason.encode("utf-8"))
            else:
                out = framing.encode_frame(
                    framing.KIND_RESPONSE, req_id, frame.dst, bytes(response))
            async with write_lock:
                writer.write(out)
                await writer.drain()
        except (ConnectionError, RuntimeError, framing.FramingError):
            obs.get_registry().incr("net.tcp.response_write_failures")

    # -- client side -------------------------------------------------------

    async def _get_conn(self, src: str, dst: str) -> _Conn:
        key = (src, dst)
        conn = self._conns.get(key)
        if conn is not None and not conn.writer.is_closing():
            return conn
        # Concurrent first sends on one link await the same connect, so
        # the link never opens a second connection that replaces the
        # first in ``_conns``.  ``shield``: one caller's timeout must not
        # cancel the connect the others are waiting on.
        connecting = self._connecting.get(key)
        if connecting is None:
            connecting = asyncio.ensure_future(self._open_conn(key))
            self._connecting[key] = connecting
            connecting.add_done_callback(
                lambda task: self._connect_done(key, task))
        return await asyncio.shield(connecting)

    def _connect_done(self, key: tuple[str, str], task: asyncio.Task) -> None:
        if self._connecting.get(key) is task:
            del self._connecting[key]
        if not task.cancelled():
            task.exception()  # retrieved: every waiter may have given up

    async def _open_conn(self, key: tuple[str, str]) -> _Conn:
        src, dst = key
        host, port = self.location(dst)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), self.connect_timeout)
        conn = _Conn(src, dst, reader, writer)
        task = asyncio.ensure_future(self._conn_reader(conn))
        conn.reader_task = task
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)
        self._conns[key] = conn
        return conn

    async def _conn_reader(self, conn: _Conn) -> None:
        """Resolve RESPONSE/ERROR frames arriving on an outbound conn."""
        try:
            while True:
                head = await conn.reader.readexactly(framing.LENGTH_BYTES)
                (length,) = struct.unpack(">I", head)
                framing.check_length(length)
                body = await conn.reader.readexactly(length)
                kind, req_id, _src, payload = framing.decode_body(body)
                entry = self._pending.pop(req_id, None)
                conn.pending.discard(req_id)
                if entry is None:
                    obs.get_registry().incr("net.tcp.orphan_responses")
                    continue
                future, _owner = entry
                if kind == framing.KIND_RESPONSE:
                    future.set_result(payload)
                elif kind == framing.KIND_ERROR:
                    future.set_exception(NetworkError(
                        payload.decode("utf-8", "replace")))
                else:
                    future.set_exception(NetworkError(
                        f"unexpected frame kind {kind:#x} in response"))
        except (asyncio.IncompleteReadError, ConnectionError,
                framing.FramingError, asyncio.CancelledError):
            pass
        finally:
            # The link may already map to a newer connection.
            key = (conn.src, conn.dst)
            if self._conns.get(key) is conn:
                del self._conns[key]
            try:
                conn.writer.close()
            except RuntimeError:
                pass  # loop already closed (coroutine finalized at GC)
            for req_id in list(conn.pending):
                entry = self._pending.pop(req_id, None)
                if entry is not None and not entry[0].done():
                    entry[0].set_exception(NetworkError(
                        f"connection from {conn.src!r} to {conn.dst!r} "
                        f"was lost"))

    async def _write_frame(self, src: str, dst: str, kind: int,
                           req_id: int, payload: bytes) -> None:
        conn = await self._get_conn(src, dst)
        out = framing.encode_frame(kind, req_id, src, payload)
        if kind == framing.KIND_REQUEST:
            # Before the write: the response may be read before it returns.
            conn.pending.add(req_id)
        async with conn.write_lock:
            conn.writer.write(out)
            await conn.writer.drain()

    def _post_frame(self, src: str, dst: str, kind: int, req_id: int,
                    payload: bytes) -> bool:
        """Post one frame to the loop without waiting, if the link is ready.

        Ready means a pooled connection is open and its write buffer,
        counting frames already posted, stays within the asyncio
        transport's high-water mark with this frame added.  Otherwise
        nothing is posted and ``False`` tells the caller to write
        through ``_write_frame`` and wait, which connects, reports a
        refused connect and applies drain backpressure.  Posts run
        FIFO on the one loop, so per-link order holds.
        """
        loop = self._loop
        conn = self._conns.get((src, dst))
        if loop is None or conn is None or conn.writer.is_closing():
            return False
        try:
            out = framing.encode_frame(kind, req_id, src, payload)
        except framing.FramingError:
            return False  # the caller's write raises it as before
        transport = conn.writer.transport
        with conn.posted_lock:
            if (transport.get_write_buffer_size() + conn.posted + len(out)
                    > transport.get_write_buffer_limits()[1]):
                return False
            conn.posted += len(out)
        if kind == framing.KIND_REQUEST:
            # Before the post: the response may be read before it returns.
            conn.pending.add(req_id)
        try:
            loop.call_soon_threadsafe(self._write_posted, conn, out, req_id,
                                      len(payload))
        except RuntimeError:  # the loop closed under us
            with conn.posted_lock:
                conn.posted -= len(out)
            conn.pending.discard(req_id)
            return False
        return True

    def _write_posted(self, conn: _Conn, out: bytes, req_id: int,
                      size: int) -> None:
        """Loop side of ``_post_frame``: write, or drop if the conn closed."""
        with conn.posted_lock:
            conn.posted -= len(out)
        registry = obs.get_registry()
        if conn.writer.is_closing():
            registry.incr("net.tcp.frames_dropped")
            conn.pending.discard(req_id)
            entry = self._pending.pop(req_id, None) if req_id else None
            if entry is not None and not entry[0].done():
                entry[0].set_exception(NetworkError(
                    f"connection from {conn.src!r} to {conn.dst!r} was lost"))
            return
        conn.writer.write(out)
        registry.incr("net.tcp.frames_sent")
        registry.incr("net.tcp.bytes_sent", size)

    # -- adversary surface ---------------------------------------------------
    # The tap/interceptor hooks of repro.net.adversary.  On sockets there
    # is no mid-wire vantage point, so the chain runs on the outbound
    # path of this transport object: every send() datagram, the request
    # leg before the write and the response leg after it.  When the
    # endpoints under attack share the transport (the in-process
    # evaluation setup) that is every frame, matching the simulator.

    def add_tap(self, tap) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap) -> None:
        self._taps.remove(tap)

    def add_interceptor(self, interceptor) -> None:
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor) -> None:
        self._interceptors.remove(interceptor)

    def _through_adversaries(self, frame: Frame) -> Frame | None:
        if not self._taps and not self._interceptors:
            return frame
        from repro.net.adversary import run_chain

        return run_chain(self._taps, self._interceptors, frame)

    # -- transport contract ------------------------------------------------

    def _wire_send(self, src: str, dst: str, kind: int, payload: bytes) -> bool:
        """Write one wire unit (DATA or BATCH); ``False`` on failure."""
        registry = obs.get_registry()
        try:
            self._run(self._write_frame(src, dst, kind, 0, bytes(payload)),
                      self.connect_timeout)
        except (NetworkError, OSError):
            registry.incr("net.tcp.frames_dropped")
            return False
        registry.incr("net.tcp.frames_sent")
        registry.incr("net.tcp.bytes_sent", len(payload))
        return True

    def _send_unit(self, src: str, dst: str, kind: int, payload: bytes) -> bool:
        """The link scheduler's wire: post when ready, else write and wait."""
        return (self._post_frame(src, dst, kind, 0, bytes(payload))
                or self._wire_send(src, dst, kind, payload))

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        """Best-effort datagram; ``False`` when the connection fails."""
        self.location(dst)  # unknown destination raises, like the sim
        out = self._through_adversaries(
            Frame(src=src, dst=dst, payload=bytes(payload),
                  sent_at=self.clock.now))
        if out is None or out.dst not in self._directory:
            # Adversarial drop (or redirect into the void): best-effort
            # loss, exactly the simulator's answer.
            obs.get_registry().incr("net.tcp.frames_dropped")
            return False
        src, dst, payload = out.src, out.dst, out.payload
        scheduler = self.scheduler
        if scheduler is None:
            return self._wire_send(src, dst, framing.KIND_DATA, payload)
        # coalesce=None: the idle heuristic — a quiet link flushes this
        # frame immediately, a busy one queues behind the adaptive timer.
        return scheduler.enqueue(src, dst, payload)

    def request(self, src: str, dst: str, payload: bytes) -> bytes:
        """Round-trip exchange; raises :class:`NetworkError` on failure."""
        self.location(dst)
        out = self._through_adversaries(
            Frame(src=src, dst=dst, payload=bytes(payload),
                  sent_at=self.clock.now))
        if out is None or out.dst not in self._directory:
            raise NetworkError(f"request from {src!r} to {dst!r} was dropped")
        dst, payload = out.dst, out.payload
        if self.scheduler is not None:
            # Ordering barrier: datagrams queued to this link must hit
            # the wire before the request does.
            self.scheduler.flush_link(src, dst)
        req_id = next(self._req_ids)
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._pending[req_id] = (future, src)
        registry = obs.get_registry()
        if not self._post_frame(src, dst, framing.KIND_REQUEST, req_id,
                                bytes(payload)):
            try:
                self._run(self._write_frame(src, dst, framing.KIND_REQUEST,
                                            req_id, bytes(payload)),
                          self.connect_timeout)
            except (NetworkError, OSError) as exc:
                self._pending.pop(req_id, None)
                raise NetworkError(
                    f"request from {src!r} to {dst!r} was dropped: {exc}") from exc
            registry.incr("net.tcp.frames_sent")
            registry.incr("net.tcp.bytes_sent", len(payload))
        try:
            response = future.result(self.request_timeout)
        except concurrent.futures.TimeoutError as exc:
            self._pending.pop(req_id, None)
            raise NetworkError(
                f"request from {src!r} to {dst!r} timed out after "
                f"{self.request_timeout}s") from exc
        # Response leg through the same chain: taps see the answer,
        # interceptors may tamper with or drop it, like the simulator's
        # second _through_adversaries pass inside request().
        back = self._through_adversaries(
            Frame(src=dst, dst=src, payload=response,
                  sent_at=self.clock.now))
        if back is None:
            raise NetworkError(
                f"response from {dst!r} to {src!r} was dropped")
        return back.payload

    def unregister(self, address: str) -> None:
        """Drop an endpoint and drain everything attached to it.

        Closes its listening socket, every inbound connection, every
        pooled outbound connection it originated, and fails its pending
        requests — so a closed endpoint can never leak connections.
        """
        if self.scheduler is not None:
            self.scheduler.flush_for(address)
            self.scheduler.forget(address)
        with self._lock:
            state = self._endpoints.pop(address, None)
            self._directory.pop(address, None)
        if state is None:
            return
        if self._loop is not None and self._loop.is_running():
            try:
                self._run(self._teardown_endpoint(address, state),
                          _SHUTDOWN_GRACE)
            except NetworkError:
                pass
        for req_id, (future, owner) in list(self._pending.items()):
            if owner == address and not future.done():
                self._pending.pop(req_id, None)
                future.set_exception(NetworkError(
                    f"endpoint {address!r} closed with the request in flight"))
        obs.get_registry().set_gauge("net.tcp.endpoints", len(self._endpoints))

    async def _teardown_endpoint(self, address: str,
                                 state: _EndpointState) -> None:
        if state.server is not None:
            state.server.close()
        for writer in list(state.inbound):
            writer.close()
        state.inbound.clear()
        for key, conn in list(self._conns.items()):
            if key[0] == address:
                if conn.reader_task is not None:
                    conn.reader_task.cancel()
                conn.writer.close()
                self._conns.pop(key, None)
        if state.server is not None:
            # Last: from Python 3.12.1 this waits for every connection
            # the server accepted to close, so they are closed above.
            await state.server.wait_closed()

    async def _drain_tasks(self) -> None:
        tasks = [task for task in asyncio.all_tasks()
                 if task is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def close(self) -> None:
        """Tear down every endpoint, the pool, and the event loop."""
        with self._lock:
            if self._closed:
                return
            addresses = list(self._endpoints)
        if self.scheduler is not None:
            self.scheduler.flush_all()
        # A pooled connection whose write buffer is still full only
        # *starts* closing on unregister; it is aborted below.
        writers = [conn.writer for conn in list(self._conns.values())]
        for address in addresses:
            self.unregister(address)
        with self._lock:
            loop, thread = self._loop, self._thread
        if loop is not None and loop.is_running():
            # Let cancelled reader/request tasks run their finally blocks
            # while the loop is still alive, so no coroutine is finalized
            # against a closed loop at GC time.
            try:
                self._run(self._drain_tasks(), _SHUTDOWN_GRACE)
                self._run(_abort(writers), _SHUTDOWN_GRACE)
            except NetworkError:
                pass
        with self._lock:
            self._closed = True
            self._loop = self._thread = None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(_SHUTDOWN_GRACE)
            loop.close()
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
