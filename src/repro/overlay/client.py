"""The Client Module: the primitives applications are built on.

Applications on JXTA-Overlay "are always based on the invocation of
Client Module primitives and the processing of events thrown by
functions" (section 2.2).  This class implements the plain (insecure)
primitive sets the paper discusses:

* **discovery**: ``connect``, ``login``, ``logout``, ``peer_status``,
  ``search_advertisements``
* **group**: ``create_group``, ``join_group``, ``leave_group``,
  ``list_groups``, ``group_members``
* **messenger**: ``send_msg_peer``, ``send_msg_peer_group``
* **file**: ``publish_file``, ``search_files``, ``request_file``
* **executable**: ``submit_task`` (the set the paper's further-work
  section flags as security-sensitive)

The plain protocol is deliberately era-faithful insecure: passwords in
clear, unauthenticated advertisements, unencrypted messages — the attack
tests demonstrate each weakness and the secure client in
:mod:`repro.core` fixes them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro import obs, wire
from repro.crypto.drbg import HmacDrbg
from repro.crypto.sha2 import sha256
from repro.errors import (
    AuthenticationError,
    BrokerUnavailableError,
    CircuitOpenError,
    JxtaError,
    NetworkError,
    NotConnectedError,
    OverlayError,
    PrimitiveError,
    PrimitiveTimeoutError,
    ReproError,
    TransportError,
)
from repro.jxta.advertisements import (
    FileAdvertisement,
    PeerAdvertisement,
    PipeAdvertisement,
    PresenceAdvertisement,
)
from repro.jxta.ids import JxtaID, random_peer_id
from repro.jxta.messages import Message
from repro.jxta.pipes import InputPipe
from repro.overlay.control import ControlModule, unpack_results
from repro.overlay.federation import fed_metric
from repro.overlay.filesharing import FileStore, chunked_fetch
from repro.overlay.linkcaps import LinkCapsMixin
from repro.overlay.policy import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUTS,
    CircuitBreaker,
    RetryPolicy,
    Timeout,
    run_with_retry,
)
from repro.overlay.primitives import current_primitive, primitive
from repro.overlay.results import PrimitiveResult
from repro.net.base import Transport
from repro.sim.scheduler import EventHandle, Scheduler
from repro.xmllib import Element

TaskFunction = Callable[[str], str]

#: broker fail-reasons that mean "your session is gone" (e.g. the broker
#: crashed and restarted) rather than "your request is bad"
_SESSION_LOST_MARKERS = ("not logged in", "no matching authenticated session")


def _fail_reason(resp: Message) -> str:
    """Best-effort reason text from a ``*_fail`` response."""
    try:
        return str(wire.decode(resp).get("reason", ""))
    except wire.WireRejected:
        return ""


class ClientPeer(LinkCapsMixin):
    """A JXTA-Overlay client peer (one end-user application instance)."""

    def __init__(self, network: Transport, address: str,
                 drbg: HmacDrbg, name: str = "") -> None:
        self.control = ControlModule(network, address, drbg)
        self.name = name or address
        self.peer_id: JxtaID = random_peer_id(drbg)
        self.broker_address: str | None = None
        self.username: str | None = None
        self.groups: list[str] = []
        #: learned shard-key → owning-broker cache (federated deployments)
        self._shard_owners: dict[str, str] = {}
        self.input_pipes: dict[str, InputPipe] = {}     # group -> pipe
        self.files = FileStore()
        self.task_functions: dict[str, TaskFunction] = {}
        self._presence_handle: EventHandle | None = None
        # -- robustness policies (see docs/ROBUSTNESS.md) ------------------
        #: per-category retry defaults; override per call via ``retry=``
        self.retry_policies: dict[str, RetryPolicy] = dict(DEFAULT_RETRIES)
        #: per-category timeout budgets; override per call via ``timeout=``
        self.timeouts: dict[str, Timeout] = dict(DEFAULT_TIMEOUTS)
        #: circuit breaker shared by every broker request of this peer
        self.breaker = CircuitBreaker(self.clock, name=self.name)
        #: brokers :meth:`connect` may fail over to after the primary
        self.fallback_brokers: list[str] = []
        # Deterministic backoff-jitter stream, seeded independently of the
        # peer's protocol DRBG so adding retries never perturbs existing
        # nonce/key/id streams.
        self._retry_draw = HmacDrbg(
            seed=f"retry-jitter|{address}".encode()).uniform
        self._password: str | None = None  # remembered for auto re-login
        self._relogin_in_progress = False
        self._install_functions()

    # -- plumbing -----------------------------------------------------------

    @property
    def address(self) -> str:
        return self.control.address

    @property
    def events(self):
        return self.control.events

    @property
    def metrics(self):
        return self.control.metrics

    @property
    def clock(self):
        return self.control.clock

    def _install_functions(self) -> None:
        self.control.endpoint.configure(wire=True, handlers={
            "adv_push": self._fn_adv_push,
            "peer_joined": self._fn_peer_joined,
            "peer_left": self._fn_peer_left,
            "file_req": self._fn_file_request,
            "task_req": self._fn_task_request,
            "link_caps_req": self.fn_link_caps,
        })

    def _require_broker(self) -> str:
        if self.broker_address is None:
            raise NotConnectedError(f"{self.name}: no broker connection")
        return self.broker_address

    def _require_login(self) -> str:
        self._require_broker()
        if self.username is None:
            raise NotConnectedError(f"{self.name}: not logged in")
        return self.username

    def _broker_request(self, message: Message, *,
                        retry: RetryPolicy | None = None,
                        timeout: Timeout | None = None,
                        route_key: str | None = None) -> Message:
        """One request/response exchange with the connected broker.

        Transport failures are retried under the ``broker`` policy (or a
        per-call override), gated by this peer's circuit breaker.  When
        the broker answers but reports our session gone — it crashed and
        restarted, losing its in-memory state — and we remember the login
        credentials, the session is transparently re-established and the
        request re-sent once.

        ``route_key`` marks a sharded request (keyed publish or lookup in
        a federated deployment): the exchange becomes shard-aware, going
        straight to a remembered shard owner and following at most one
        ``fed_redirect`` from the home broker.  Single-broker deployments
        never see a redirect and behave exactly as before.
        """
        self._require_broker()
        retry = retry if retry is not None else self.retry_policies["broker"]
        timeout = timeout if timeout is not None else self.timeouts["broker"]
        if route_key is None:
            resp = self._broker_exchange(message, retry, timeout)
        else:
            resp = self._routed_exchange(message, route_key, retry, timeout)
        reason = self._session_lost_reason(resp)
        if reason is not None and self._can_relogin():
            obs.emit("on_degraded", peer=str(self.peer_id),
                     primitive=current_primitive() or "broker_request",
                     reason=f"broker session lost ({reason}); re-establishing")
            self._relogin_in_progress = True
            try:
                self._relogin()
            except ReproError:
                return resp  # recovery failed: surface the original outcome
            finally:
                self._relogin_in_progress = False
            if route_key is None:
                resp = self._broker_exchange(message, retry, timeout)
            else:
                resp = self._routed_exchange(message, route_key, retry, timeout)
        return resp

    def _exchange_at(self, address: str, message: Message,
                     retry: RetryPolicy, timeout: Timeout) -> Message:
        """One exchange with a specific broker (a shard owner).

        Deliberately not gated by :attr:`breaker`, which tracks the home
        broker's health: an unreachable shard owner degrades one keyed
        request, it must not open the circuit for everything else.
        """
        def attempt() -> Message:
            return self.control.endpoint.request(address, message)

        try:
            resp, _ = run_with_retry(
                attempt, clock=self.clock, retry=retry, timeout=timeout,
                draw=self._retry_draw, peer=str(self.peer_id))
        except NetworkError as exc:
            raise BrokerUnavailableError(
                f"{self.name}: shard owner {address!r} unreachable: {exc}"
            ) from exc
        return resp

    @staticmethod
    def _shard_rejected(resp: Message) -> bool:
        """A shard owner that doesn't know us yet (directory lag)."""
        return (resp.msg_type.endswith("_fail")
                and "not logged in" in _fail_reason(resp))

    def _routed_exchange(self, message: Message, route_key: str,
                         retry: RetryPolicy, timeout: Timeout) -> Message:
        """Shard-aware exchange: resolve the key's owner, ≤1 redirect hop.

        Order of attempts: the remembered owner for this key (if any),
        then the home broker, following one ``fed_redirect`` it may
        answer with.  If the owner is unreachable or rejects us, the home
        broker is asked to handle the request locally (``fed_no_redirect``)
        — a degraded completion the next anti-entropy sweep repairs.
        """
        home = self._require_broker()
        cached = self._shard_owners.get(route_key)
        if cached is not None and cached != home:
            try:
                resp = self._exchange_at(cached, message, retry, timeout)
            except (BrokerUnavailableError, CircuitOpenError):
                resp = None
            if (resp is not None and resp.msg_type != "fed_redirect"
                    and not self._shard_rejected(resp)):
                return resp
            self._shard_owners.pop(route_key, None)  # stale topology view
        resp = self._broker_exchange(message, retry, timeout)
        if resp.msg_type != "fed_redirect":
            return resp
        owner = wire.decode(resp)["owner"]
        fed_metric("fed.redirect_followed")
        try:
            followed = self._exchange_at(owner, message, retry, timeout)
        except (BrokerUnavailableError, CircuitOpenError):
            followed = None
        if (followed is not None and followed.msg_type != "fed_redirect"
                and not self._shard_rejected(followed)):
            self._shard_owners[route_key] = owner
            return followed
        fed_metric("fed.redirect_failed")
        obs.emit("on_degraded", peer=str(self.peer_id),
                 primitive=current_primitive() or "broker_request",
                 reason=f"shard owner {owner!r} unavailable; "
                        f"handled locally by {home!r}")
        if not message.has("fed_no_redirect"):
            message.add_text("fed_no_redirect", "1")
        return self._broker_exchange(message, retry, timeout)

    def _broker_exchange(self, message: Message, retry: RetryPolicy,
                         timeout: Timeout) -> Message:
        def attempt() -> Message:
            return self.control.endpoint.request(self._require_broker(), message)

        try:
            resp, _ = run_with_retry(
                attempt, clock=self.clock, retry=retry, timeout=timeout,
                breaker=self.breaker, draw=self._retry_draw,
                peer=str(self.peer_id))
        except CircuitOpenError:
            raise
        except NetworkError as exc:
            raise BrokerUnavailableError(
                f"{self.name}: broker unreachable: {exc}") from exc
        return resp

    @staticmethod
    def _session_lost_reason(resp: Message) -> str | None:
        if not resp.msg_type.endswith("_fail"):
            return None
        reason = _fail_reason(resp)
        if any(marker in reason for marker in _SESSION_LOST_MARKERS):
            return reason
        return None

    def _can_relogin(self) -> bool:
        return (not self._relogin_in_progress
                and self.username is not None
                and self._password is not None
                and self.broker_address is not None)

    def _relogin(self) -> None:
        """Re-establish the broker session with remembered credentials.

        The secure client overrides this to run secureConnection first,
        so a fresh ``sid`` protects the re-login exactly like the first
        one (the replay guard still rejects any pre-crash sid).
        """
        username, password = self.username, self._password
        assert username is not None and password is not None
        self.connect(self.broker_address, fallbacks=self.fallback_brokers)
        self.login(username, password)

    # ======================================================================
    # discovery primitives
    # ======================================================================

    @primitive("discovery")
    def connect(self, broker_address: str, *,
                fallbacks: Sequence[str] | None = None,
                retry: RetryPolicy | None = None,
                timeout: Timeout | None = None) -> str:
        """connect: locate a broker and open a connection (§4.2).

        The plain version performs NO broker authentication — any endpoint
        answering ``connect_req`` is believed.  Returns the broker name.

        Candidates are tried in order: ``broker_address`` first, then
        ``fallbacks`` (default: :attr:`fallback_brokers`).  Landing on a
        fallback counts as a degraded completion (``on_degraded``).
        """
        candidates = [broker_address,
                      *(fallbacks if fallbacks is not None
                        else self.fallback_brokers)]
        last_exc: Exception | None = None
        self._shard_owners.clear()  # a new home brings a new topology view
        for index, candidate in enumerate(candidates):
            self.broker_address = candidate
            try:
                resp = self._broker_request(Message("connect_req"),
                                            retry=retry, timeout=timeout)
            except NotConnectedError as exc:
                self.broker_address = None
                self.events.emit("connection_failed", broker=candidate)
                last_exc = exc
                continue
            if resp.msg_type != "connect_ok":
                self.broker_address = None
                self.events.emit("connection_failed", broker=candidate)
                raise OverlayError(
                    f"unexpected connect response {resp.msg_type!r}")
            if index:
                obs.emit("on_degraded", peer=str(self.peer_id),
                         primitive="connect",
                         reason=f"failed over to {candidate!r} "
                                f"(skipped {index} dead broker(s))")
            broker_name = wire.decode(resp)["broker_name"]
            self.events.emit("connected", broker=candidate,
                             broker_name=broker_name)
            obs.emit("on_connect", peer=str(self.peer_id), broker=candidate,
                     secure=False)
            return broker_name
        raise BrokerUnavailableError(
            f"{self.name}: no broker reachable among {candidates!r}"
        ) from last_exc

    @primitive("discovery")
    def login(self, username: str, password: str) -> list[str]:
        """login: authenticate the end user with username and password.

        Credentials travel in clear text (the paper's headline threat).
        On success: creates one input pipe per group, publishes the pipe
        advertisements through the broker, returns the group list.
        """
        self._require_broker()
        req = Message("login_req")
        req.add_text("username", username)
        req.add_text("password", password)
        req.add_xml("peer_adv", self._peer_advertisement().to_element())
        resp = self._broker_request(req)
        if resp.msg_type != "login_ok":
            reason = _fail_reason(resp)
            self.events.emit("login_failed", username=username, reason=reason)
            raise AuthenticationError(
                f"login rejected: {reason or resp.msg_type}")
        self.username = username
        self._password = password  # remembered for automatic re-login
        self.groups = list(wire.decode(resp)["groups"])
        for group in self.groups:
            self._open_and_publish_pipe(group)
        self.events.emit("logged_in", username=username, groups=list(self.groups))
        obs.emit("on_login", peer=str(self.peer_id), username=username,
                 groups=list(self.groups), secure=False)
        return list(self.groups)

    @primitive("discovery")
    def logout(self) -> None:
        """logout: leave the network and drop all session state."""
        username = self._require_login()
        self._broker_request(Message("logout_req"))
        self.stop_presence()
        for group in list(self.input_pipes):
            self.control.pipes.close_pipe(self.input_pipes.pop(group).pipe_id)
        self.username = None
        self._password = None
        self.groups = []
        self.broker_address = None
        self._shard_owners.clear()
        self.events.emit("logged_out", username=username)
        obs.emit("on_logout", peer=str(self.peer_id), username=username)

    @primitive("discovery")
    def peer_status(self, peer_id: str) -> dict[str, Any]:
        """peer_status: ask the broker whether a peer is online."""
        self._require_login()
        req = Message("peer_status_req")
        req.add_text("peer_id", peer_id)
        resp = self._broker_request(req, route_key=peer_id)
        frame = wire.decode(resp)
        status = {"peer_id": peer_id, "online": frame["online"] == "true"}
        if status["online"]:
            status["username"] = frame["username"]
            status["last_seen"] = float(frame["last_seen"])
        return status

    @primitive("discovery")
    def search_advertisements(self, *, adv_type: str | None = None,
                              peer_id: str | None = None,
                              group: str | None = None) -> list[Element]:
        """search_advertisements: query the broker's global index.

        Results are cached locally and returned as raw XML documents.
        """
        self._require_login()
        req = Message("query_req")
        if adv_type:
            req.add_text("adv_type", adv_type)
        if peer_id:
            req.add_text("peer_id", peer_id)
        if group:
            req.add_text("group", group)
        resp = self._broker_request(req, route_key=peer_id)
        elements = unpack_results(wire.decode(resp)["results"])
        for element in elements:
            try:
                self.control.accept_advertisement(element)
            except (OverlayError, JxtaError):
                self.metrics.incr("client.bad_search_result")
        return elements

    # ======================================================================
    # group primitives
    # ======================================================================

    @primitive("group")
    def create_group(self, name: str, description: str = "") -> None:
        """create_group: create and publish a new peer group via the broker."""
        self._require_login()
        req = Message("create_group_req")
        req.add_text("name", name)
        req.add_text("description", description)
        resp = self._broker_request(req)
        if resp.msg_type != "create_group_ok":
            raise OverlayError(f"create_group failed: {_fail_reason(resp)}")
        if name not in self.groups:
            self.groups.append(name)
            self._open_and_publish_pipe(name)
        self.events.emit("group_created", group=name)

    @primitive("group")
    def join_group(self, name: str) -> list[str]:
        """join_group: become a member; returns current member peer ids."""
        self._require_login()
        req = Message("join_group_req")
        req.add_text("name", name)
        resp = self._broker_request(req)
        if resp.msg_type != "join_group_ok":
            raise OverlayError(f"join_group failed: {_fail_reason(resp)}")
        if name not in self.groups:
            self.groups.append(name)
            self._open_and_publish_pipe(name)
        members = list(wire.decode(resp)["members"])
        self.events.emit("group_joined", group=name, members=members)
        return members

    @primitive("group")
    def leave_group(self, name: str) -> None:
        """leave_group: resign membership and close the group pipe."""
        self._require_login()
        req = Message("leave_group_req")
        req.add_text("name", name)
        resp = self._broker_request(req)
        if resp.msg_type != "leave_group_ok":
            raise OverlayError(f"leave_group failed: {_fail_reason(resp)}")
        if name in self.groups:
            self.groups.remove(name)
        pipe = self.input_pipes.pop(name, None)
        if pipe is not None:
            self.control.pipes.close_pipe(pipe.pipe_id)
        self.events.emit("group_left", group=name)

    @primitive("group")
    def list_groups(self) -> list[str]:
        """list_groups: every group published on the broker."""
        self._require_login()
        resp = self._broker_request(Message("list_groups_req"))
        return list(wire.decode(resp)["groups"])

    @primitive("group")
    def group_members(self, name: str) -> list[str]:
        """group_members: current member peer ids of a group."""
        self._require_login()
        req = Message("group_members_req")
        req.add_text("name", name)
        resp = self._broker_request(req)
        if resp.msg_type != "group_members_resp":
            raise OverlayError(f"group_members failed: {_fail_reason(resp)}")
        return list(wire.decode(resp)["members"])

    # ======================================================================
    # messenger primitives (§4.3)
    # ======================================================================

    def _resolve_pipe(self, peer_id: str, group: str) -> Element:
        """Find the target's pipe advertisement: local cache, then broker."""
        return self._resolve_pipe_entry(peer_id, group).deep_copy()

    def _resolve_pipe_entry(self, peer_id: str, group: str) -> Element:
        """Like :meth:`_resolve_pipe`, but returns the cache's element
        without copying (read-only; the secure client memoizes validation
        results against its identity)."""
        try:
            return self.control.cached_pipe_element(peer_id, group)
        except (OverlayError, JxtaError):
            pass
        self.search_advertisements(adv_type="PipeAdvertisement",
                                   peer_id=peer_id, group=group)
        return self.control.cached_pipe_element(peer_id, group)

    def _pipe_send(self, pipe, message: Message, retry: RetryPolicy,
                   timeout: Timeout) -> tuple[bool, int, Exception | None]:
        """Datagram send with retry: (delivered, attempts, last_error)."""

        def attempt() -> bool:
            if not pipe.send(message):
                raise TransportError("pipe datagram was not delivered")
            return True

        try:
            _, attempts = run_with_retry(
                attempt, clock=self.clock, retry=retry, timeout=timeout,
                retry_on=(TransportError, NetworkError),
                draw=self._retry_draw, peer=str(self.peer_id))
            return True, attempts, None
        except (TransportError, NetworkError, PrimitiveTimeoutError) as exc:
            return False, getattr(exc, "attempts", retry.max_attempts), exc

    @primitive("messenger")
    def send_msg_peer(self, peer_id: str, group: str, text: str, *,
                      retry: RetryPolicy | None = None,
                      timeout: Timeout | None = None) -> PrimitiveResult:
        """sendMsgPeer: a simple text message to one peer, no security.

        Plain text on the wire; no integrity, no source authenticity (the
        ``from`` fields are self-asserted and trivially spoofable).

        Returns a :class:`~repro.overlay.results.PrimitiveResult` whose
        truthiness equals delivery success.  Lost datagrams are retried
        under the ``messenger`` policy (or the per-call ``retry=``
        override); delivery failure is reported in the result, never
        raised.

        .. deprecated:: the historical bare ``bool`` return; rely on the
           result object (its ``__bool__`` shim keeps old callers alive).
        """
        self._require_login()
        if group not in self.groups:
            raise PrimitiveError(f"{self.name} is not a member of {group!r}")
        retry = retry if retry is not None else self.retry_policies["messenger"]
        timeout = timeout if timeout is not None else self.timeouts["messenger"]
        started = self.clock.now
        adv_elem = self._resolve_pipe(peer_id, group)
        adv = PipeAdvertisement.from_element(adv_elem)
        chat = Message("chat")
        chat.add_text("from_peer", str(self.peer_id))
        chat.add_text("from_user", self.username or "")
        chat.add_text("group", group)
        chat.add_text("text", text)
        sent, attempts, error = self._pipe_send(
            self.control.output_pipe(adv), chat, retry, timeout)
        if sent:
            obs.emit("on_msg_sent", peer=str(self.peer_id), to_peer=peer_id,
                     group=group, n_bytes=len(text.encode("utf-8")),
                     secure=False)
        if sent and attempts > 1:
            obs.emit("on_degraded", peer=str(self.peer_id),
                     primitive="send_msg_peer",
                     reason=f"delivered after {attempts} attempts")
        return PrimitiveResult(
            ok=sent, value=sent, attempts=attempts,
            elapsed_ms=(self.clock.now - started) * 1e3,
            degraded=attempts > 1 or not sent, error=error)

    @primitive("messenger")
    def send_msg_peer_group(self, group: str, text: str, *,
                            retry: RetryPolicy | None = None,
                            timeout: Timeout | None = None) -> PrimitiveResult:
        """sendMsgPeerGroup: iteratively sendMsgPeer to every member.

        Per-recipient isolation: one unreachable member no longer aborts
        the whole fan-out — it is counted and the call completes degraded.
        The result's ``value`` is the delivery count (the historical bare
        ``int`` return, now deprecated; ``result == n`` still compares
        against it).
        """
        self._require_login()
        started = self.clock.now
        delivered = failures = 0
        attempts = 1
        last_error: Exception | None = None
        for member in self.group_members(group):
            if member == str(self.peer_id):
                continue
            try:
                result = self.send_msg_peer(member, group, text,
                                            retry=retry, timeout=timeout)
            except (OverlayError, JxtaError, NetworkError) as exc:
                self.metrics.incr("client.group_send_miss")
                failures += 1
                last_error = exc
                continue
            attempts += result.attempts - 1
            if result.ok:
                delivered += 1
            else:
                self.metrics.incr("client.group_send_miss")
                failures += 1
                last_error = result.error
        if failures:
            obs.emit("on_degraded", peer=str(self.peer_id),
                     primitive="send_msg_peer_group",
                     reason=f"{failures} member(s) unreachable, "
                            f"{delivered} delivered")
        return PrimitiveResult(
            ok=failures == 0, value=delivered, attempts=attempts,
            elapsed_ms=(self.clock.now - started) * 1e3,
            degraded=failures > 0, error=last_error)

    # ======================================================================
    # file-sharing primitives
    # ======================================================================

    @primitive("file")
    def publish_file(self, group: str, file_name: str, content: bytes) -> FileAdvertisement:
        """publish_file: offer a file to a group via a FileAdvertisement."""
        self._require_login()
        if group not in self.groups:
            raise PrimitiveError(f"{self.name} is not a member of {group!r}")
        self.files.add(file_name, content)
        adv = FileAdvertisement(
            peer_id=self.peer_id, file_name=file_name, size=len(content),
            sha256_hex=sha256(content).hex(), group=group)
        self._publish(self._prepare_adv_element(adv))
        self.events.emit("file_published", group=group, file_name=file_name)
        return adv

    @primitive("file")
    def search_files(self, *, group: str | None = None,
                     peer_id: str | None = None) -> list[FileAdvertisement]:
        """search_files: list files offered in a group / by a peer.

        Both filters are keyword-only (they are optional and mutually
        orthogonal; positional use read ambiguously).
        """
        elements = self.search_advertisements(
            adv_type="FileAdvertisement", peer_id=peer_id, group=group)
        out = []
        for element in elements:
            out.append(FileAdvertisement.from_element(element))
        self.events.emit("file_list_received", files=[f.file_name for f in out])
        return out

    @primitive("file")
    def request_file(self, peer_id: str, group: str, file_name: str, *,
                     chunk_size: int = 16384,
                     retry: RetryPolicy | None = None,
                     timeout: Timeout | None = None) -> PrimitiveResult:
        """request_file: fetch a file directly from the owning peer.

        Chunked request/response transfer with a final SHA-256 check
        against the advertised digest when one is cached.  Each chunk
        round-trip is retried independently under the ``file`` policy,
        and the shared timeout budget spans the whole transfer.

        Returns a :class:`~repro.overlay.results.PrimitiveResult` whose
        ``value`` is the file content; the historical bare ``bytes``
        return is deprecated (``len(result)`` / ``result[i]`` /
        ``result == data`` all delegate to the content).  Integrity and
        lookup failures still raise.
        """
        self._require_login()
        retry = retry if retry is not None else self.retry_policies["file"]
        timeout = timeout if timeout is not None else self.timeouts["file"]
        started = self.clock.now
        adv_elem = self._resolve_pipe(peer_id, group)
        address = PipeAdvertisement.from_element(adv_elem).address
        total_attempts = 0

        def request(addr: str, message: Message) -> Message:
            nonlocal total_attempts
            resp, attempts = run_with_retry(
                lambda: self.control.endpoint.request(addr, message),
                clock=self.clock, retry=retry, timeout=timeout,
                draw=self._retry_draw, peer=str(self.peer_id))
            total_attempts += attempts
            return resp

        content = chunked_fetch(self.control.endpoint, address, file_name,
                                chunk_size, request=request)
        expected = None
        for entry in self.control.cache.find("FileAdvertisement", peer_id=peer_id, group=group):
            if entry.parsed.file_name == file_name:  # type: ignore[attr-defined]
                expected = entry.parsed.sha256_hex   # type: ignore[attr-defined]
        if expected is not None and sha256(content).hex() != expected:
            self.events.emit("file_transfer_failed", file_name=file_name,
                             reason="digest mismatch")
            raise OverlayError(f"file {file_name!r} failed its integrity check")
        self.events.emit("file_received", file_name=file_name, size=len(content))
        n_chunks = max(1, -(-len(content) // chunk_size))
        degraded = total_attempts > n_chunks
        if degraded:
            obs.emit("on_degraded", peer=str(self.peer_id),
                     primitive="request_file",
                     reason=f"{total_attempts - n_chunks} chunk retr"
                            f"{'ies' if total_attempts - n_chunks != 1 else 'y'}"
                            f" during transfer of {file_name!r}")
        return PrimitiveResult(
            ok=True, value=content, attempts=total_attempts,
            elapsed_ms=(self.clock.now - started) * 1e3, degraded=degraded)

    # ======================================================================
    # executable primitives (further-work set, §6)
    # ======================================================================

    def register_task(self, task_name: str, fn: TaskFunction) -> None:
        """Expose a named task other peers may invoke on this peer."""
        self.task_functions[task_name] = fn

    @primitive("executable")
    def submit_task(self, peer_id: str, group: str, task_name: str,
                    argument: str) -> str:
        """submit_task: remote task execution on another peer (plain).

        The paper singles these primitives out as especially sensitive;
        the plain version happily runs anything, authenticated by nothing.
        """
        self._require_login()
        adv_elem = self._resolve_pipe(peer_id, group)
        address = PipeAdvertisement.from_element(adv_elem).address
        req = Message("task_req")
        req.add_text("task", task_name)
        req.add_text("argument", argument)
        req.add_text("from_peer", str(self.peer_id))
        self.events.emit("task_submitted", peer_id=peer_id, task=task_name)
        resp = self.control.endpoint.request(address, req)
        if resp.msg_type != "task_resp":
            raise OverlayError(f"task failed: {_fail_reason(resp)}")
        result = wire.decode(resp)["result"]
        self.events.emit("task_result", peer_id=peer_id, task=task_name, result=result)
        return result

    # ======================================================================
    # presence
    # ======================================================================

    def start_presence(self, scheduler: Scheduler, interval: float = 30.0) -> None:
        """Begin periodic presence beacons to the broker (one per group)."""
        self._require_login()
        if self._presence_handle is not None:
            raise PrimitiveError("presence already running")
        self._presence_handle = scheduler.schedule_periodic(interval, self._beat)

    def stop_presence(self) -> None:
        if self._presence_handle is not None:
            self._presence_handle.cancel()
            self._presence_handle = None

    def _beat(self) -> None:
        if self.broker_address is None:
            return
        for group in self.groups:
            adv = PresenceAdvertisement(
                peer_id=self.peer_id, group=group, timestamp=self.clock.now)
            beat = Message("presence_beat")
            beat.add_xml("adv", adv.to_element())
            self.control.endpoint.send(self.broker_address, beat)
        self.events.emit("presence_update", groups=list(self.groups))

    # ======================================================================
    # internals
    # ======================================================================

    def _peer_advertisement(self) -> PeerAdvertisement:
        return PeerAdvertisement(
            peer_id=self.peer_id, name=self.name, address=self.address)

    def _prepare_adv_element(self, adv) -> Element:
        """Hook: how an advertisement becomes wire XML.  The secure client
        overrides this to attach an XMLdsig signature and credential."""
        return adv.to_element()

    def _open_and_publish_pipe(self, group: str) -> None:
        if group in self.input_pipes:
            return
        pipe, adv = self.control.open_group_pipe(self.peer_id, group)
        pipe.add_listener(self._on_pipe_message)
        self.input_pipes[group] = pipe
        element = self._prepare_adv_element(adv)
        self.control.cache.publish(element)
        self._publish(element)

    def _publish(self, element: Element) -> None:
        req = Message("publish_adv")
        req.add_xml("adv", element)
        resp = self._broker_request(req, route_key=str(self.peer_id))
        if resp.msg_type != "publish_ok":
            raise OverlayError(f"publish failed: {_fail_reason(resp)}")

    def _on_pipe_message(self, inner: Message, src: str) -> None:
        if inner.msg_type == "chat":
            frame = wire.decode(inner)  # cache hit after the pipe boundary
            self.events.emit(
                "message_received",
                from_peer=frame["from_peer"],
                from_user=frame["from_user"],
                group=frame["group"],
                text=frame["text"],
            )
            obs.emit("on_msg_received", peer=str(self.peer_id),
                     from_peer=frame["from_peer"],
                     group=frame["group"],
                     n_bytes=len(frame["text"].encode("utf-8")),
                     secure=False)
        else:
            self.metrics.incr("client.pipe_unknown")

    # -- incoming functions ---------------------------------------------------

    def _fn_adv_push(self, message: Message, src: str) -> None:
        try:
            self.control.accept_advertisement(wire.decode(message)["adv"])
        except (OverlayError, JxtaError):
            self.metrics.incr("client.bad_adv_push")
        return None

    def _fn_peer_joined(self, message: Message, src: str) -> None:
        frame = wire.decode(message)
        self.events.emit(
            "peer_joined_group",
            group=frame["group"],
            peer_id=frame["peer_id"],
            username=frame["username"],
        )
        return None

    def _fn_peer_left(self, message: Message, src: str) -> None:
        frame = wire.decode(message)
        group = frame["group"]
        peer_id = frame["peer_id"]
        self.control.cache.remove_peer(peer_id)
        self.events.emit("peer_left_group", group=group, peer_id=peer_id)
        return None

    def _fn_file_request(self, message: Message, src: str) -> Message:
        return self.files.handle_request(message)

    def _fn_task_request(self, message: Message, src: str) -> Message:
        frame = wire.decode(message)
        task_name = frame["task"]
        fn = self.task_functions.get(task_name)
        out = Message("task_resp")
        if fn is None:
            out = Message("task_fail")
            out.add_text("reason", f"unknown task {task_name!r}")
            return out
        try:
            result = fn(frame["argument"])
        except Exception as exc:  # a task crashing must not kill the peer
            out = Message("task_fail")
            out.add_text("reason", f"task raised: {exc}")
            return out
        out.add_text("result", result)
        return out
