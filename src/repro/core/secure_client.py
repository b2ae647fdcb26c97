"""The security-aware client peer: the paper's extended primitives.

:class:`SecureClientPeer` is a stock Client Module plus the §4 extension:

* ``secure_connect`` — challenge/response broker authentication,
* ``secure_login`` — replay-protected, signed + encrypted login that
  yields a broker-issued credential ``Cred_Cl^Br``,
* **signed advertisements** — every advertisement this client publishes
  carries an XMLdsig signature and the credential chain (transparent key
  distribution),
* ``secure_msg_peer`` / ``secure_msg_peer_group`` — stateless encrypted
  and signed messaging (§4.3),
* ``secure_publish_file`` / ``secure_request_file`` and
  ``secure_submit_task`` — the further-work extensions of §6, built from
  the same building blocks ("any message exchange can be secured using an
  approach similar to that defined for messenger primitives").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro import obs, wire
from repro.core import secure_connection as sc
from repro.core import secure_exec as sx
from repro.core import secure_filesharing as sf
from repro.core import secure_login as sl
from repro.core import secure_messaging as sm
from repro.core.credentials import Credential
from repro.core.keystore import Keystore
from repro.core.revocation import RevocationChecker, RevocationList
from repro.core.policy import DEFAULT_POLICY, SecurityPolicy
from repro.core.signed_advertisement import (
    AdvertisementValidator,
    ValidatedAdvertisement,
    sign_advertisement,
)
from repro.crypto import groupkey
from repro.crypto import resume as resume_mod
from repro.crypto.drbg import HmacDrbg
from repro.errors import (
    BrokerAuthenticationError,
    NetworkError,
    CredentialError,
    DiscoveryError,
    JxtaError,
    NotConnectedError,
    OverlayError,
    PolicyError,
    PrimitiveError,
    SecurityError,
    TamperedMessageError,
    UnknownEpochError,
    UnknownSessionError,
)
from repro.jxta.advertisements import FileAdvertisement, PipeAdvertisement
from repro.jxta.messages import Message
from repro.overlay import groupcast as gc
from repro.overlay.client import ClientPeer
from repro.overlay.policy import RetryPolicy, Timeout
from repro.overlay.primitives import primitive
from repro.net.base import Transport
from repro.xmllib import Element

#: how many recent message nonces each peer remembers (duplicate damping)
NONCE_WINDOW = 1024


class SecureClientPeer(ClientPeer):
    """Client Module + the secure primitive set."""

    def __init__(self, network: Transport, address: str,
                 drbg: HmacDrbg,
                 trust_anchor: Credential, name: str = "",
                 policy: SecurityPolicy = DEFAULT_POLICY,
                 keystore: Keystore | None = None) -> None:
        super().__init__(network, address, drbg, name=name)
        self.policy = policy.validate()
        # §4.1: "At boot time, a key pair PK_Cl and SK_Cl are created."
        self.keystore = keystore if keystore is not None else Keystore.generate(
            policy.rsa_bits, drbg.fork(b"client-keys"))
        # §4.1: "Each client peer is provided with a copy of Cred_Adm^Adm."
        self.keystore.install_anchor(trust_anchor)
        # A secure peer's id IS its CBID — the key-authenticity anchor.
        self.peer_id = self.keystore.cbid
        self.revocation_checker = RevocationChecker()
        self.validator = AdvertisementValidator(
            trust_anchor, revocation=self.revocation_checker,
            max_entries=policy.adv_cache_entries)
        # Fast-path session state: what we send on (keyed by recipient key
        # fingerprint) and what we accept (keyed by sid).  The receiver
        # store is a protocol capability and stays active regardless of
        # policy — only *establishing* sessions is gated on
        # ``enable_resumption``, so mixed-policy peers interoperate.
        self.resume_sessions = resume_mod.SenderResumeCache(
            ttl=policy.resume_ttl, max_uses=policy.resume_max_uses,
            max_peers=policy.resume_max_peers)
        self.resume_store = resume_mod.ReceiverResumeStore(
            ttl=policy.resume_ttl, max_uses=policy.resume_max_uses,
            max_sessions=policy.resume_max_peers)
        #: sids of our *own* sessions a receiver told us it cannot map
        #: (``resume_reset`` notices) — consumed to re-key and resend
        self._resume_resets: set[str] = set()
        #: sid from the last secureConnection, consumed by secureLogin
        self.sid: str | None = None
        self.broker_credential: Credential | None = None
        self._broker_chain: list[Credential] = []
        self._seen_nonces: OrderedDict[bytes, None] = OrderedDict()
        #: Validated-pipe memo: (peer_id, group) -> (cache element as
        #: validated, ValidatedAdvertisement).  Keyed on the cache entry's
        #: *object identity*: a republished advertisement is a fresh
        #: element, so it revalidates; revocation flushes the memo; and
        #: validity windows are re-checked on every hit.
        self._validated_pipes: OrderedDict[
            tuple[str, str], tuple[Element, ValidatedAdvertisement]] = OrderedDict()
        #: usernames allowed to run tasks here (None = any validated user)
        self.task_acl: set[str] | None = None
        #: group-cast key rings, one per joined group (epoch-keyed)
        self.group_keys: dict[str, groupkey.GroupKeyRing] = {}
        #: groups we registered delivery interest for (``group_sub``)
        self._group_subs: set[str] = set()
        #: per-group high-water mark of delivered broker seq numbers —
        #: survives re-login so a re-subscribe replays only what we missed
        self._group_seq: dict[str, int] = {}
        self._install_secure_functions()

    def _install_secure_functions(self) -> None:
        self.control.endpoint.configure(handlers={
            sf.FILE_REQ: self._fn_secure_file_request,
            sx.TASK_REQ: self._fn_secure_task_request,
            "revocation_push": self._fn_revocation_push,
            sm.RESUME_RESET: self._fn_resume_reset,
            gc.GROUP_DELIVER: self._fn_group_deliver,
        })

    # ======================================================================
    # credential revocation (further work, §6)
    # ======================================================================

    def _accept_revocation_list(self, element: Element) -> bool:
        """Verify a pushed/fetched revocation list against the broker key."""
        if self.broker_credential is None:
            return False
        try:
            rl = RevocationList.from_element(element)
        except SecurityError:
            self.metrics.incr("client.bad_revocation_list")
            return False
        if rl.issuer_id != self.broker_credential.subject_id:
            self.metrics.incr("client.foreign_revocation_list")
            return False
        try:
            updated = self.revocation_checker.update(
                rl, self.broker_credential.public_key)
        except SecurityError:
            self.metrics.incr("client.bad_revocation_list")
            return False
        if updated:
            self._flush_trust_caches()
        return updated

    def _flush_trust_caches(self) -> None:
        """A fresh revocation list can void any cached trust decision:
        validated advertisements, memoized signature verifications, and
        live resumption sessions (which skip per-frame chain checks)."""
        self.validator.invalidate()  # also clears the shared sigcache
        self._validated_pipes.clear()
        self.resume_sessions.invalidate()
        self.resume_store.invalidate()

    def _fn_revocation_push(self, message: Message, src: str) -> None:
        if self._accept_revocation_list(wire.decode(message)["rl"]):
            self.metrics.incr("client.revocation_updates")
        return None

    @primitive("discovery", secure=True)
    def fetch_revocations(self) -> bool:
        """fetch_revocations: pull the broker's signed revocation list."""
        self._require_broker()
        resp = self._broker_request(Message("revocation_req"))
        if resp.msg_type != "revocation_resp":
            return False
        return self._accept_revocation_list(wire.decode(resp)["rl"])

    # ======================================================================
    # credential renewal (further work, §6)
    # ======================================================================

    @primitive("discovery", secure=True)
    def secure_renew_credential(self) -> Credential:
        """secure_renew_credential: obtain a fresh Cred_Cl^Br.

        Must run while the current credential is still valid (the broker
        verifies the whole chain).  On success the new credential replaces
        the old one and all group pipe advertisements are re-published
        under the fresh chain.
        """
        from repro.core.secure_rpc import seal_signed_request

        self._require_login()
        if not self.keystore.chain or self.broker_credential is None:
            raise SecurityError("renewal requires an active credential")
        body = Element("RenewRequest")
        body.add("PeerId", text=str(self.peer_id))
        from repro.utils.encoding import b64encode

        body.add("Nonce", text=b64encode(self.control.drbg.generate(16)))
        body.add("Timestamp", text=repr(self.clock.now))
        env = seal_signed_request(
            body, self.keystore, self.broker_credential.public_key,
            self.policy, self.control.drbg,
            b"jxta-overlay-renew-credential")
        request = Message("renew_req")
        request.add_json("envelope", env)
        resp = self._broker_request(request)
        if resp.msg_type != "renew_ok":
            try:
                reason = (wire.decode(resp).get("reason", "")
                          or resp.msg_type)
            except wire.WireRejected:
                reason = resp.msg_type
            raise SecurityError(f"credential renewal refused: {reason}")
        fresh = Credential.from_element(wire.decode(resp)["credential"])
        fresh.verify(self.broker_credential.public_key, self.clock.now)
        if fresh.public_key != self.keystore.keys.public:
            raise CredentialError("renewed credential is for a different key")
        self.keystore.install_chain([fresh, *self._broker_chain])
        # Republish pipe advertisements so peers see the fresh chain.
        for group, pipe in self.input_pipes.items():
            adv = PipeAdvertisement(
                peer_id=self.peer_id, pipe_id=pipe.pipe_id, group=group,
                address=self.address)
            self._publish(self._prepare_adv_element(adv))
        self.events.emit("credential_issued", credential=fresh)
        return fresh

    # ======================================================================
    # secureConnection (§4.2.1)
    # ======================================================================

    @primitive("discovery", secure=True)
    def secure_connect(self, broker_address: str, *,
                       fallbacks: Sequence[str] | None = None) -> Credential:
        """secureConnection: authenticate the broker before trusting it.

        Runs the §4.2.1 challenge/response.  On success stores the sid and
        the broker's validated credential and returns the latter; on
        failure emits ``broker_rejected`` and raises
        :class:`BrokerAuthenticationError`.

        ``fallbacks`` (default: :attr:`fallback_brokers`) are tried in
        order when a broker is merely *unreachable*.  A broker that
        answers but fails authentication aborts the whole failover: an
        impostor must never be able to steer us to a broker of its
        choosing by "failing politely" (see ``docs/ROBUSTNESS.md``).
        """
        candidates = [broker_address,
                      *(fallbacks if fallbacks is not None
                        else self.fallback_brokers)]
        self._shard_owners.clear()  # a new home brings a new topology view
        last_exc: Exception | None = None
        for index, candidate in enumerate(candidates):
            try:
                credential = self._secure_connect_one(candidate)
            except BrokerAuthenticationError:
                raise  # an authentication failure is never failed over
            except (NotConnectedError, NetworkError, OverlayError) as exc:
                last_exc = exc
                continue
            if index:
                obs.emit("on_degraded", peer=str(self.peer_id),
                         primitive="secure_connect",
                         reason=f"failed over to {candidate!r} "
                                f"(skipped {index} dead broker(s))")
            return credential
        raise BrokerAuthenticationError(
            f"secureConnection failed for every broker in {candidates!r}: "
            f"{last_exc}") from last_exc

    def _secure_connect_one(self, broker_address: str) -> Credential:
        """One §4.2.1 challenge/response against one broker address.

        Re-raises the *original* failure class so :meth:`secure_connect`
        can distinguish an unreachable broker (eligible for failover)
        from one that answered but failed authentication (never skipped).
        """
        anchor = self.keystore.require_anchor()
        with obs.span("secureConnection", peer=str(self.peer_id),
                      broker=broker_address):
            with obs.span("secure_connect.challenge"):
                chall = sc.build_challenge(
                    self.control.drbg, self.policy.challenge_bytes)
            self.broker_address = broker_address
            try:
                resp = self.control.endpoint.request(
                    broker_address, sc.build_connect_request(chall))
                with obs.span("secure_connect.verify"):
                    verification = sc.verify_connect_response(
                        resp, chall, anchor, self.clock.now)
            except (BrokerAuthenticationError, NotConnectedError, OverlayError,
                    NetworkError) as exc:
                self.broker_address = None
                self.events.emit("broker_rejected", broker=broker_address,
                                 reason=str(exc))
                obs.emit("on_broker_rejected", peer=str(self.peer_id),
                         broker=broker_address, reason=str(exc))
                raise
            self.sid = verification.sid
            self.broker_credential = verification.broker_credential
            self._broker_chain = verification.broker_chain
        self.events.emit("connected", broker=broker_address,
                         broker_name=verification.broker_credential.subject_name)
        obs.emit("on_connect", peer=str(self.peer_id), broker=broker_address,
                 secure=True)
        return verification.broker_credential

    # ======================================================================
    # secureLogin (§4.2.2)
    # ======================================================================

    @primitive("discovery", secure=True)
    def secure_login(self, username: str, password: str) -> list[str]:
        """secureLogin: join the network and obtain Cred_Cl^Br.

        Requires a prior :meth:`secure_connect` (the sid).  The login blob
        is signed with SK_Cl and sealed to PK_Br together with the sid.
        On success the broker-issued credential is validated, installed,
        and every subsequent advertisement this client publishes is
        signed.
        """
        self._require_broker()
        if self.sid is None or self.broker_credential is None:
            raise SecurityError("secure_login requires a completed secure_connect")
        with obs.span("secureLogin", peer=str(self.peer_id), username=username):
            with obs.span("secure_login.sign"):
                doc = sl.build_login_document(
                    username, password, self.keystore.keys,
                    peer_name=self.name, peer_address=self.address,
                    scheme=self.policy.signature_scheme, drbg=self.control.drbg)
            with obs.span("secure_login.envelope"):
                request = sl.seal_login_request(
                    doc, self.sid, self.broker_credential.public_key,
                    suite=self.policy.envelope_suite,
                    wrap=self.policy.envelope_wrap,
                    drbg=self.control.drbg)
            sid_used, self.sid = self.sid, None  # one shot, even on failure
            resp = self._broker_request(request)
            try:
                credential, groups = sl.parse_login_response(resp)
            except SecurityError:
                self.events.emit("login_failed", username=username,
                                 reason=resp.msg_type)
                obs.emit("on_credential_rejected", peer=str(self.peer_id),
                         reason=resp.msg_type)
                raise
            # Validate what the broker issued before trusting it.
            with obs.span("secure_login.verify"):
                credential.verify(self.broker_credential.public_key, self.clock.now)
            if credential.public_key != self.keystore.keys.public:
                raise CredentialError("broker issued a credential for a different key")
            if credential.subject_name != username:
                raise CredentialError("broker issued a credential for a different user")
            self.keystore.install_chain([credential, *self._broker_chain])
            self.username = username
            self._password = password  # remembered for automatic re-login
            self.groups = list(groups)
            # A fresh session may face fresh epochs (our own login rotates
            # them; a restarted broker restarts numbering from scratch):
            # drop the rings and re-pull lazily.  The per-group delivery
            # high-water marks survive so a re-subscribe replays only the
            # frames we actually missed.
            self.group_keys.clear()
            self._group_subs.clear()
            for group in self.groups:
                self._open_and_publish_pipe(group)
        self.events.emit("credential_issued", credential=credential)
        self.events.emit("logged_in", username=username, groups=list(self.groups))
        obs.emit("on_login", peer=str(self.peer_id), username=username,
                 groups=list(self.groups), secure=True)
        return list(self.groups)

    def _relogin(self) -> None:
        """Re-establish a lost broker session over the *secure* handshake.

        A broker restart voids both the session and every outstanding
        sid, so recovery is a full secureConnection (fresh sid) followed
        by secureLogin — the stale pre-crash sid is never reused and
        would be rejected as a replay if it were.
        """
        broker = self.broker_address
        username, password = self.username, self._password
        assert broker is not None and username is not None and password is not None
        self.secure_connect(broker, fallbacks=self.fallback_brokers)
        self.secure_login(username, password)

    # ======================================================================
    # secure group management (further work, §6)
    # ======================================================================

    def _secure_group_op(self, op: str, group: str,
                         description: str = "") -> list[str]:
        from repro.core import secure_groups as sg

        self._require_login()
        if not self.keystore.chain or self.broker_credential is None:
            raise SecurityError(f"secure group {op} requires a credential")
        request, nonce = sg.build_group_op(
            op, group, self.keystore, self.broker_credential.public_key,
            self.policy, self.control.drbg, self.clock.now,
            description=description)
        resp = self._broker_request(request)
        return sg.parse_group_op_response(
            resp, self.keystore, self.broker_credential.public_key,
            nonce, self.policy)

    @primitive("group", secure=True)
    def secure_create_group(self, name: str, description: str = "") -> list[str]:
        """secure_create_group: authenticated group creation.

        Unlike the plain primitive, the broker acts for the *credential
        subject*, not the frame source address."""
        members = self._secure_group_op("create", name, description)
        if name not in self.groups:
            self.groups.append(name)
            self._open_and_publish_pipe(name)
        self._auto_subscribe(name)
        self.events.emit("group_created", group=name)
        return members

    @primitive("group", secure=True)
    def secure_join_group(self, name: str) -> list[str]:
        """secure_join_group: authenticated membership; returns members."""
        members = self._secure_group_op("join", name)
        if name not in self.groups:
            self.groups.append(name)
            self._open_and_publish_pipe(name)
        self._auto_subscribe(name)
        self.events.emit("group_joined", group=name, members=members)
        return members

    def _auto_subscribe(self, name: str) -> None:
        """Register group-cast delivery interest alongside a join/create.

        Best-effort: a refused subscription (e.g. the broker runs with
        group cast disabled) degrades to legacy-style delivery instead
        of failing the membership operation itself.
        """
        if not self.policy.enable_group_cast:
            return
        try:
            self.group_subscribe(name)
        except (SecurityError, OverlayError, NetworkError) as exc:
            obs.emit("on_degraded", peer=str(self.peer_id),
                     primitive="group_subscribe", reason=str(exc))

    @primitive("group", secure=True)
    def secure_leave_group(self, name: str) -> None:
        """secure_leave_group: authenticated resignation."""
        self._secure_group_op("leave", name)
        if name in self.groups:
            self.groups.remove(name)
        self._group_subs.discard(name)
        self.group_keys.pop(name, None)
        pipe = self.input_pipes.pop(name, None)
        if pipe is not None:
            self.control.pipes.close_pipe(pipe.pipe_id)
        self.events.emit("group_left", group=name)

    # ======================================================================
    # signed advertisements (§4.1 / ref [15])
    # ======================================================================

    def _prepare_adv_element(self, adv) -> Element:
        """Sign every advertisement once we hold a credential chain."""
        element = adv.to_element()
        if self.keystore.chain:
            sign_advertisement(
                element, self.keystore.keys.private, self.keystore.chain,
                sig_alg=self.policy.signature_scheme, drbg=self.control.drbg)
        return element

    #: LRU bound on the validated-pipe memo (distinct conversation targets).
    _VALIDATED_PIPES_MAX = 1024

    def _resolve_validated_pipe(self, peer_id: str, group: str) -> ValidatedAdvertisement:
        """Steps 1-3 of §4.3.1: fetch and validate the signed pipe adv.

        The full path canonicalizes and hash-checks the signed document
        on every send just to *find* the validator's cache entry, so the
        client memoizes the outcome against the cache element's object
        identity instead — the element cannot have changed if it is
        literally the same object — while still honouring what can
        change underneath an unchanged document: credential validity
        windows and freshly arrived revocations are re-checked on every
        hit, and :meth:`_flush_trust_caches` drops the memo wholesale.
        """
        raw = self._resolve_pipe_entry(peer_id, group)
        memo = self._validated_pipes.get((peer_id, group))
        if memo is not None:
            source, validated = memo
            if source is raw:
                try:
                    validated.credential.check_validity_window(self.clock.now)
                except CredentialError:
                    del self._validated_pipes[(peer_id, group)]
                else:
                    if self.validator.revocation is not None:
                        self.validator.revocation.check_chain(validated.chain)
                    self._validated_pipes.move_to_end((peer_id, group))
                    return validated
            else:
                del self._validated_pipes[(peer_id, group)]
        # Validate a private copy so the memoized result can never alias
        # later cache mutations; `raw` itself is kept only as the
        # identity anchor.
        validated = self.validator.validate(raw.deep_copy(), self.clock.now)
        if not isinstance(validated.advertisement, PipeAdvertisement):
            raise SecurityError(
                f"expected a signed PipeAdvertisement from {peer_id}")
        self._validated_pipes[(peer_id, group)] = (raw, validated)
        if len(self._validated_pipes) > self._VALIDATED_PIPES_MAX:
            self._validated_pipes.popitem(last=False)
        return validated

    # ======================================================================
    # secureMsgPeer / secureMsgPeerGroup (§4.3)
    # ======================================================================

    @primitive("messenger", secure=True)
    def secure_msg_peer(self, peer_id: str, group: str, text: str, *,
                        retry: RetryPolicy | None = None,
                        timeout: Timeout | None = None) -> bool:
        """secureMsgPeer: E_PK_Cl2(m, S_SK_Cl1(m)) through the group pipe.

        Validates the recipient's signed pipe advertisement first (a
        tampered advertisement aborts the send, per step 2), then seals
        and signs the message.  Stateless: no handshake, no session.

        Delivery stays era-faithful best-effort by default: availability
        is explicitly out of the paper's threat model, so one attempt,
        ``bool`` return.  Pass ``retry=`` to opt into re-sending the
        *same* sealed datagram on loss — safe because the receiver's
        nonce cache collapses any accidental double delivery.
        """
        self._require_login()
        if group not in self.groups:
            raise PrimitiveError(f"{self.name} is not a member of {group!r}")
        with obs.span("secureMsgPeer", peer=str(self.peer_id),
                      to_peer=peer_id, group=group):
            with obs.span("secure_msg.resolve"):
                validated = self._resolve_validated_pipe(peer_id, group)
            payload = sm.build_payload(
                from_peer=str(self.peer_id), group=group, text=text,
                nonce=self.control.drbg.generate(16), timestamp=self.clock.now)
            message, sid, seeds = self._seal_chat_message(payload, validated)
            sent = self._send_sealed_frame(validated, message, retry, timeout)
            if sent:
                self._store_resume_seeds(seeds)
            if sid is not None and self._consume_reset(sid):
                # The receiver cannot map the session (lost establishing
                # envelope, restart, eviction): re-key and resend the same
                # payload as a full signed resumable envelope.
                self.metrics.incr("client.resume_fallback")
                message, seeds = self._seal_chat_fast(payload, validated)
                sent = self._send_sealed_frame(validated, message,
                                               retry, timeout)
                if sent:
                    self._store_resume_seeds(seeds)
        if sent:
            obs.emit("on_msg_sent", peer=str(self.peer_id), to_peer=peer_id,
                     group=group, n_bytes=len(text.encode("utf-8")), secure=True)
        return sent

    def _seal_chat_message(self, payload,
                           validated: ValidatedAdvertisement
                           ) -> tuple[Message, str | None, dict[str, bytes]]:
        """Pick the cheapest sealing the policy allows for one recipient:
        resumed (0 RSA) > fast resumable (1 sign + 1 wrap, mints a
        session) > paper-faithful baseline.

        Returns the sealed message; for a resumed frame, the session id
        it rode (the caller checks it against ``resume_reset`` notices
        after the synchronous send); and any freshly minted resumption
        seeds — stored by the caller only once the send succeeded, so a
        failed establishing envelope never leaves a sender-side session
        the receiver will not recognize.
        """
        recipient_key = validated.credential.public_key
        if self.policy.enable_resumption:
            fingerprint = recipient_key.fingerprint().hex()
            session = self.resume_sessions.get(fingerprint, self.clock.now)
            if session is not None:
                return (sm.seal_message_resumed(payload, session),
                        session.sid, {})
            message, seeds = self._seal_chat_fast(payload, validated)
            return message, None, seeds
        return sm.seal_message(
            payload, self.keystore.keys.private, recipient_key,
            suite=self.policy.envelope_suite, wrap=self.policy.envelope_wrap,
            scheme=self.policy.signature_scheme,
            drbg=self.control.drbg), None, {}

    def _seal_chat_fast(self, payload,
                        validated: ValidatedAdvertisement
                        ) -> tuple[Message, dict[str, bytes]]:
        """Full signed envelope that also mints a fresh resumption seed
        (returned, not stored — see :meth:`_store_resume_seeds`)."""
        recipient_key = validated.credential.public_key
        return sm.seal_message_fast(
            payload, self.keystore.keys.private, [recipient_key],
            suite=self.policy.envelope_suite,
            wrap=self.policy.envelope_wrap,
            scheme=self.policy.signature_scheme, drbg=self.control.drbg,
            resumable=True)

    def _store_resume_seeds(self, seeds: dict[str, bytes]) -> None:
        """Install sender-side sessions for seeds whose establishing
        envelope was actually delivered."""
        for fp, seed in seeds.items():
            self.resume_sessions.store(fp, seed, self.policy.envelope_suite,
                                       self.clock.now)

    def _send_sealed_frame(self, validated: ValidatedAdvertisement,
                           message: Message, retry: RetryPolicy | None,
                           timeout: Timeout | None) -> bool:
        pipe_adv = validated.advertisement
        assert isinstance(pipe_adv, PipeAdvertisement)
        pipe = self.control.output_pipe(pipe_adv)
        if retry is None:
            return bool(pipe.send(message))
        budget = timeout if timeout is not None else self.timeouts["messenger"]
        sent, _, _ = self._pipe_send(pipe, message, retry, budget)
        return bool(sent)

    def _group_targets(self, group: str, resolve):
        """Iterate the non-self members of ``group``, yielding
        ``(member, resolve(member))`` pairs.

        The shared miss taxonomy of every fan-out mode lives here: a
        member whose resolution fails (unvalidatable advertisement,
        unreachable peer, ...) is skipped and counted — one
        ``client.secure_group_send_miss`` increment plus one
        ``message_rejected`` event — never aborting the fan-out.
        """
        for member in self.group_members(group):
            if member == str(self.peer_id):
                continue
            try:
                resolved = resolve(member)
            except (SecurityError, OverlayError, DiscoveryError,
                    NetworkError) as exc:
                self.metrics.incr("client.secure_group_send_miss")
                self.events.emit("message_rejected", peer_id=member,
                                 reason=f"group send skip: {exc}")
                continue
            yield member, resolved

    @primitive("messenger", secure=True)
    def secure_msg_peer_group(self, group: str, text: str, *,
                              retry: RetryPolicy | None = None,
                              timeout: Timeout | None = None) -> int:
        """secureMsgPeerGroup: one logical message to every group member.

        Baseline (``enable_seal_many`` off): iterated
        :meth:`secure_msg_peer`, paying a full sign + seal per recipient
        exactly as §4.3 prescribes.  Fast path: one payload is signed
        once; members with a live resumption session get a resumed frame
        (0 RSA), the rest share a single multi-recipient envelope
        (1 sign + 1 symmetric pass + k wraps).

        Broker-mediated path (``enable_group_cast`` on): the sender pays
        one sign + one epoch-key seal + one frame to its home broker —
        O(1) in the member count — and the broker fans out locally and
        along the federation ring (see ``docs/ARCHITECTURE.md``).  The
        return value is then the *broker-reported* local delivery count,
        not a per-member send tally.

        Per-recipient isolation in the iterated modes: a member whose
        advertisement fails validation (or who is unreachable) is
        skipped and counted, never aborting the fan-out
        (:meth:`_group_targets`).
        """
        self._require_login()
        if self.policy.enable_group_cast:
            return self._group_cast_send(group, text,
                                         retry=retry, timeout=timeout)
        if not self.policy.enable_seal_many:
            delivered = 0
            for _member, ok in self._group_targets(
                    group, lambda m: self.secure_msg_peer(
                        m, group, text, retry=retry, timeout=timeout)):
                if ok:
                    delivered += 1
            return delivered
        if group not in self.groups:
            raise PrimitiveError(f"{self.name} is not a member of {group!r}")
        n_bytes = len(text.encode("utf-8"))
        delivered = 0
        with obs.span("secureMsgPeerGroup", peer=str(self.peer_id),
                      group=group):
            # One payload (one nonce) for every member: receivers keep
            # per-peer nonce windows, so sharing it is replay-safe.
            payload = sm.build_payload(
                from_peer=str(self.peer_id), group=group, text=text,
                nonce=self.control.drbg.generate(16),
                timestamp=self.clock.now)
            cold: list[ValidatedAdvertisement] = []
            for member, validated in self._group_targets(
                    group, lambda m: self._resolve_validated_pipe(m, group)):
                session = None
                if self.policy.enable_resumption:
                    session = self.resume_sessions.get(
                        validated.credential.public_key.fingerprint().hex(),
                        self.clock.now)
                if session is not None:
                    message = sm.seal_message_resumed(payload, session)
                    ok = self._send_sealed_frame(validated, message,
                                                 retry, timeout)
                    if self._consume_reset(session.sid):
                        # Receiver lost the session: fold this member into
                        # the shared re-keying envelope below instead.
                        self.metrics.incr("client.resume_fallback")
                        cold.append(validated)
                        continue
                    if ok:
                        delivered += 1
                        obs.emit("on_msg_sent", peer=str(self.peer_id),
                                 to_peer=member, group=group,
                                 n_bytes=n_bytes, secure=True)
                else:
                    cold.append(validated)
            if cold:
                message, seeds = sm.seal_message_fast(
                    payload, self.keystore.keys.private,
                    [v.credential.public_key for v in cold],
                    suite=self.policy.envelope_suite,
                    wrap=self.policy.envelope_wrap,
                    scheme=self.policy.signature_scheme,
                    drbg=self.control.drbg,
                    resumable=self.policy.enable_resumption)
                # Only members whose establishing envelope was delivered
                # get a sender-side session; a member that never saw the
                # seed would reject the next resumed frame outright.
                reached: set[str] = set()
                for validated in cold:
                    if self._send_sealed_frame(validated, message,
                                               retry, timeout):
                        delivered += 1
                        reached.add(
                            validated.credential.public_key.fingerprint().hex())
                        obs.emit("on_msg_sent", peer=str(self.peer_id),
                                 to_peer=str(validated.advertisement.peer_id),
                                 group=group, n_bytes=n_bytes, secure=True)
                self._store_resume_seeds(
                    {fp: seed for fp, seed in seeds.items() if fp in reached})
        return delivered

    # ======================================================================
    # broker-mediated group cast (epoch keys, §6 further work)
    # ======================================================================

    def _group_ring(self, group: str) -> groupkey.GroupKeyRing:
        ring = self.group_keys.get(group)
        if ring is None:
            ring = groupkey.GroupKeyRing(
                group, suite=self.policy.envelope_suite,
                history=self.policy.group_epoch_history)
            self.group_keys[group] = ring
        return ring

    def _refresh_group_epochs(self, group: str) -> int:
        """Pull our entitled epoch secrets from the broker (signed RPC).

        Returns the ring's current epoch after installation.
        """
        from repro.core import secure_groups as sg

        self._require_login()
        if not self.keystore.chain or self.broker_credential is None:
            raise SecurityError("group epoch fetch requires a credential")
        request, nonce = sg.build_epoch_fetch(
            group, self.keystore, self.broker_credential.public_key,
            self.policy, self.control.drbg, self.clock.now)
        resp = self._broker_request(request)
        secrets = sg.parse_epoch_response(
            resp, self.keystore, self.broker_credential.public_key,
            nonce, self.policy)
        ring = self._group_ring(group)
        for epoch, secret in sorted(secrets.items()):
            ring.install(epoch, secret)
        self.metrics.incr("client.group_epoch_refresh")
        return ring.epoch

    def _group_cast_send(self, group: str, text: str, *,
                         retry: RetryPolicy | None = None,
                         timeout: Timeout | None = None) -> int:
        """One sign + one epoch seal + one broker frame, any member count.

        A ``stale_epoch`` refusal (the broker rotated under us) triggers
        exactly one refresh + resend of the *same payload* — replay-safe
        because every receiver keeps a nonce window.
        """
        if group not in self.groups:
            raise PrimitiveError(f"{self.name} is not a member of {group!r}")
        with obs.span("secureMsgPeerGroup", peer=str(self.peer_id),
                      group=group, mode="cast"):
            ring = self._group_ring(group)
            if ring.epoch == 0:
                self._refresh_group_epochs(group)
            payload = sm.build_payload(
                from_peer=str(self.peer_id), group=group, text=text,
                nonce=self.control.drbg.generate(16),
                timestamp=self.clock.now)
            resp = self._send_group_cast(group, payload, retry, timeout)
            if (resp.msg_type == gc.GROUP_CAST_FAIL
                    and self._cast_fail_code(resp) == "stale_epoch"):
                self.metrics.incr("client.group_cast_stale_retry")
                self._refresh_group_epochs(group)
                resp = self._send_group_cast(group, payload, retry, timeout)
        if resp.msg_type != gc.GROUP_CAST_OK:
            reason = self._cast_fail_reason(resp)
            self.events.emit("message_rejected", peer_id="",
                             reason=f"group cast refused: {reason}")
            raise SecurityError(f"group cast refused: {reason}")
        frame = wire.decode(resp)
        delivered = int(frame.get("delivered") or 0)
        obs.emit("on_msg_sent", peer=str(self.peer_id), to_peer="*",
                 group=group, n_bytes=len(text.encode("utf-8")), secure=True)
        self.metrics.incr("client.group_cast_sent")
        return delivered

    def _send_group_cast(self, group: str, payload,
                         retry: RetryPolicy | None,
                         timeout: Timeout | None) -> Message:
        ring = self._group_ring(group)
        if ring.epoch == 0:
            raise SecurityError(f"no epoch key established for {group!r}")
        env = sm.seal_group_payload(
            payload, self.keystore.keys.private, ring.get(ring.epoch),
            self.policy.signature_scheme, self.control.drbg)
        request = Message(gc.GROUP_CAST)
        request.add_text("group", group)
        request.add_text("epoch", str(ring.epoch))
        request.add_json("envelope", env)
        return self._broker_request(request, retry=retry, timeout=timeout)

    @staticmethod
    def _cast_fail_code(resp: Message) -> str:
        try:
            return wire.decode(resp).get("code", "")
        except wire.WireRejected:
            return ""

    @staticmethod
    def _cast_fail_reason(resp: Message) -> str:
        try:
            return wire.decode(resp).get("reason", "") or resp.msg_type
        except wire.WireRejected:
            return resp.msg_type

    @primitive("group", secure=True)
    def group_subscribe(self, group: str) -> int:
        """group_subscribe: register delivery interest for a group.

        The broker fans every group-cast frame out to subscribers only
        (interest-based delivery) and replays its bounded backlog of
        frames we missed — the store-and-forward path for reconnecting
        members.  Returns the number of frames scheduled for replay.
        """
        self._require_login()
        if group not in self.groups:
            raise PrimitiveError(f"{self.name} is not a member of {group!r}")
        if self._group_ring(group).epoch == 0:
            # Need keys before deliveries start arriving.
            self._refresh_group_epochs(group)
        request = Message(gc.GROUP_SUB)
        request.add_text("group", group)
        since = self._group_seq.get(group, 0)
        if since:
            request.add_text("since", str(since))
        resp = self._broker_request(request)
        if resp.msg_type != gc.GROUP_SUB_OK:
            raise SecurityError(
                f"group subscribe refused: {self._cast_fail_reason(resp)}")
        frame = wire.decode(resp)
        self._group_subs.add(group)
        if int(frame.get("epoch") or 0) > self._group_ring(group).epoch:
            self._refresh_group_epochs(group)
        self.metrics.incr("client.group_subscribed")
        return int(frame.get("replayed") or 0)

    @primitive("group", secure=True)
    def group_unsubscribe(self, group: str) -> bool:
        """group_unsubscribe: withdraw delivery interest for a group."""
        self._require_login()
        request = Message(gc.GROUP_UNSUB)
        request.add_text("group", group)
        resp = self._broker_request(request)
        self._group_subs.discard(group)
        return resp.msg_type == gc.GROUP_UNSUB_OK

    def _fn_group_deliver(self, message: Message, src: str) -> None:
        """One broker-fanned group frame (group-cast delivery path).

        Decrypts under the epoch ring — refreshing once if the frame
        names a *newer* epoch than we hold — then runs the same §4.3.1
        acceptance tail as the legacy pipe path, so both modes share one
        accept/reject taxonomy.
        """
        try:
            frame = wire.decode(message)
            group = str(frame["group"])
            seq = int(frame["seq"])
            env = frame["envelope"]
        except (JxtaError, KeyError, TypeError, ValueError):
            self.metrics.incr("client.group_deliver_malformed")
            return
        ring = self._group_ring(group)
        try:
            try:
                opened = sm.open_group_payload(env, ring)
            except UnknownEpochError:
                # We lag the rotation schedule: one refresh, one retry.
                self._refresh_group_epochs(group)
                opened = sm.open_group_payload(env, ring)
        except (SecurityError, OverlayError, DiscoveryError,
                NetworkError) as exc:
            self.metrics.incr("client.secure_chat_rejected")
            self.events.emit("message_rejected", peer_id=src,
                             reason=str(exc))
            obs.emit("on_msg_rejected", peer=str(self.peer_id),
                     from_peer=src, reason=str(exc))
            return
        if self._accept_opened_chat(opened, src) and seq > self._group_seq.get(group, 0):
            self._group_seq[group] = seq

    # -- resumption re-keying (resume_reset notices) ---------------------------

    def _send_resume_reset(self, src: str, sid: str | None) -> None:
        """Tell a sender we cannot map its resumed frame (re-key please)."""
        if not sid:
            return
        obs.get_registry().incr("crypto.resume.reset_sent")
        notice = Message(sm.RESUME_RESET)
        notice.add_text("sid", sid)
        self.control.endpoint.send(src, notice)

    def _fn_resume_reset(self, message: Message, src: str) -> None:
        """An unauthenticated "re-key please" notice from a receiver.

        Honoring it only drops a sender-side cache entry, so the worst a
        forged reset does is downgrade the next send to the
        paper-baseline full envelope — and only for a sid the forger
        observed on the wire.  Sids we never minted are ignored.
        """
        try:
            sid = wire.decode(message)["sid"]
        except JxtaError:
            return
        if self.resume_sessions.invalidate_sid(sid):
            self._resume_resets.add(sid)

    def _consume_reset(self, sid: str) -> bool:
        """Whether this sid was reset (checked once, after a send)."""
        if sid in self._resume_resets:
            self._resume_resets.discard(sid)
            return True
        return False

    # -- receive side ----------------------------------------------------------

    def _nonce_fresh(self, nonce: bytes) -> bool:
        if nonce in self._seen_nonces:
            return False
        self._seen_nonces[nonce] = None
        while len(self._seen_nonces) > NONCE_WINDOW:
            self._seen_nonces.popitem(last=False)
        return True

    def _on_pipe_message(self, inner: Message, src: str) -> None:
        if inner.msg_type == sm.SECURE_CHAT:
            self._handle_secure_chat(inner, src)
            return
        if inner.msg_type == "chat" and self.policy.enforce_secure_messaging:
            self.metrics.incr("client.plain_chat_refused")
            self.events.emit(
                "message_rejected", peer_id=src,
                reason="policy requires secure messaging")
            return
        super()._on_pipe_message(inner, src)

    def _handle_secure_chat(self, inner: Message, src: str) -> None:
        """Steps 5-7 of §4.3.1 on the receiving peer.

        A resumed frame skips advertisement resolution and the RSA
        signature check: its authenticity rides the session, which was
        bound to the sender's verified credential at establishment.  A
        full frame that carries a resumption seed registers that session
        — but only *after* the sender signature verified.
        """
        try:
            opened = sm.open_message(inner, self.keystore.keys.private,
                                     resume_store=self.resume_store,
                                     now=self.clock.now)
        except UnknownSessionError as exc:
            # A resumed frame on a session we do not hold: undecryptable
            # for us, but the sender can recover — ask it to re-key.
            self._send_resume_reset(src, exc.sid)
            self.metrics.incr("client.secure_chat_rejected")
            self.events.emit("message_rejected", peer_id=src, reason=str(exc))
            obs.emit("on_msg_rejected", peer=str(self.peer_id), from_peer=src,
                     reason=str(exc))
            return
        except (SecurityError, OverlayError, DiscoveryError) as exc:
            self.metrics.incr("client.secure_chat_rejected")
            self.events.emit("message_rejected", peer_id=src, reason=str(exc))
            obs.emit("on_msg_rejected", peer=str(self.peer_id), from_peer=src,
                     reason=str(exc))
            return
        self._accept_opened_chat(opened, src)

    def _accept_opened_chat(self, opened: sm.OpenedMessage, src: str) -> bool:
        """The shared §4.3.1 acceptance tail: nonce freshness, group
        membership, sender verification against the validated pipe
        advertisement, then the accept counters/events.

        Both delivery paths — direct pipe frames and broker-fanned
        group-cast frames — converge here, so acceptance and rejection
        carry the exact same taxonomy in either mode.
        """
        try:
            if not self._nonce_fresh(opened.nonce):
                obs.emit("on_replay_blocked", peer=str(self.peer_id),
                         kind="nonce")
                raise TamperedMessageError("duplicate message nonce (replay?)")
            if opened.group not in self.groups:
                raise TamperedMessageError(
                    f"message targets group {opened.group!r} we are not in")
            if opened.resumed:
                with obs.span("secure_msg.verify"):
                    opened.verify_sender(None)
                from_user = opened.session_identity.subject_name
            else:
                sender = self._resolve_validated_pipe(opened.from_peer,
                                                      opened.group)
                with obs.span("secure_msg.verify"):
                    opened.verify_sender(sender.credential.public_key)
                from_user = sender.credential.subject_name
                if opened.resume_seed is not None:
                    self.resume_store.register(
                        opened.resume_seed, opened.suite, sender.credential,
                        self.clock.now)
        except (SecurityError, OverlayError, DiscoveryError) as exc:
            self.metrics.incr("client.secure_chat_rejected")
            self.events.emit("message_rejected", peer_id=src, reason=str(exc))
            obs.emit("on_msg_rejected", peer=str(self.peer_id), from_peer=src,
                     reason=str(exc))
            return False
        self.metrics.incr("client.secure_chat_accepted")
        self.events.emit(
            "secure_message_received",
            from_peer=opened.from_peer,
            from_user=from_user,
            group=opened.group,
            text=opened.text,
        )
        obs.emit("on_msg_received", peer=str(self.peer_id),
                 from_peer=opened.from_peer, group=opened.group,
                 n_bytes=len(opened.text.encode("utf-8")), secure=True)
        return True

    # ======================================================================
    # secure file sharing (further work, §6)
    # ======================================================================

    @primitive("file", secure=True)
    def secure_publish_file(self, group: str, file_name: str,
                            content: bytes) -> FileAdvertisement:
        """secure_publish_file: publish_file with a signed advertisement."""
        # The base primitive already routes through _prepare_adv_element,
        # which signs once a credential chain is installed.
        if not self.keystore.chain:
            raise SecurityError("secure_publish_file requires a credential")
        return self.publish_file(group, file_name, content)

    @primitive("file", secure=True)
    def secure_search_files(self, *, group: str | None = None,
                            peer_id: str | None = None) -> list[FileAdvertisement]:
        """secure_search_files: return only *validated* file offers."""
        self._require_login()
        elements = self.search_advertisements(
            adv_type="FileAdvertisement", peer_id=peer_id, group=group)
        validated: list[FileAdvertisement] = []
        for element in elements:
            try:
                result = self.validator.validate(element, self.clock.now)
            except SecurityError as exc:
                self.metrics.incr("client.file_adv_rejected")
                self.events.emit("message_rejected", peer_id=peer_id or "",
                                 reason=f"file advertisement rejected: {exc}")
                continue
            if isinstance(result.advertisement, FileAdvertisement):
                validated.append(result.advertisement)
        self.events.emit("file_list_received",
                         files=[f.file_name for f in validated])
        return validated

    @primitive("file", secure=True)
    def secure_request_file(self, peer_id: str, group: str, file_name: str,
                            *, chunk_size: int = sf.CHUNK_SIZE) -> bytes:
        """secure_request_file: authenticated, encrypted file transfer.

        Baseline (resumption off): one signed + sealed request, one
        signed + sealed whole-file response, exactly the paper's RPC
        pattern.  Fast path: the transfer is chunked; the first
        request/response pair establishes a resumption session per
        direction, and every later chunk rides resumed frames with zero
        RSA operations on either side.  Content integrity is checked
        against the *validated* file advertisement's digest either way.
        """
        self._require_login()
        if not self.keystore.chain:
            raise SecurityError("secure_request_file requires a credential")
        owner = self._resolve_validated_pipe(peer_id, group)
        owner_pipe = owner.advertisement
        assert isinstance(owner_pipe, PipeAdvertisement)
        if self.policy.enable_resumption:
            content = self._chunked_secure_fetch(owner, owner_pipe.address,
                                                 file_name, group, chunk_size)
        else:
            request = sf.build_file_request(
                file_name=file_name, group=group, keystore=self.keystore,
                owner_key=owner.credential.public_key, policy=self.policy,
                drbg=self.control.drbg, now=self.clock.now)
            resp = self.control.endpoint.request(owner_pipe.address, request)
            content = sf.parse_file_response(
                resp, self.keystore, owner.credential.public_key,
                policy=self.policy)
        expected = self._validated_file_digest(peer_id, group, file_name)
        if expected is not None:
            from repro.crypto.sha2 import sha256

            if sha256(content).hex() != expected:
                self.events.emit("file_transfer_failed", file_name=file_name,
                                 reason="digest mismatch")
                raise SecurityError(
                    f"file {file_name!r} does not match its signed advertisement")
        self.events.emit("file_received", file_name=file_name, size=len(content))
        return content

    def _chunked_secure_fetch(self, owner: ValidatedAdvertisement,
                              address: str, file_name: str, group: str,
                              chunk_size: int) -> bytes:
        """Fast-path transfer: chunked requests riding resumption sessions."""
        parts: list[bytes] = []
        offset = 0
        while True:
            chunk = self._fetch_chunk(owner, address, file_name, group,
                                      offset, chunk_size)
            parts.append(chunk.content)
            offset += len(chunk.content)
            if chunk.eof or not chunk.content:
                break
            if chunk.total is not None and offset >= chunk.total:
                break
        return b"".join(parts)

    def _fetch_chunk(self, owner: ValidatedAdvertisement, address: str,
                     file_name: str, group: str, offset: int,
                     chunk_size: int, *, rekey: bool = False) -> sf.FileChunk:
        """One chunk request/response, recovering once from session loss.

        A mid-transfer session can die on either side (owner TTL race,
        LRU eviction under many requesters, our own store restarting).
        Both signals — the owner's ``unknown_session`` refusal and our
        failure to map a resumed response — trigger one retry with a
        full signed resumable request that re-keys both directions.
        """
        request = sf.build_file_request(
            file_name=file_name, group=group, keystore=self.keystore,
            owner_key=owner.credential.public_key, policy=self.policy,
            drbg=self.control.drbg, now=self.clock.now,
            offset=offset, length=chunk_size,
            resume_sessions=self.resume_sessions, rekey=rekey)
        resp = self.control.endpoint.request(address, request)
        try:
            if (resp.msg_type == sf.FILE_FAIL
                    and wire.decode(resp).get("code") == "unknown_session"):
                raise UnknownSessionError(
                    "owner no longer holds our resumption session")
            return sf.open_file_response(
                resp, self.keystore, owner.credential, policy=self.policy,
                resume_store=self.resume_store, now=self.clock.now)
        except UnknownSessionError:
            if rekey:
                raise SecurityError(
                    f"file transfer re-key for {file_name!r} failed") from None
            self.metrics.incr("client.file_resume_fallback")
            self.resume_sessions.invalidate(
                owner.credential.public_key.fingerprint().hex())
            return self._fetch_chunk(owner, address, file_name, group,
                                     offset, chunk_size, rekey=True)

    def _validated_file_digest(self, peer_id: str, group: str,
                               file_name: str) -> str | None:
        for entry in self.control.cache.find(
                "FileAdvertisement", peer_id=peer_id, group=group):
            parsed = entry.parsed
            if getattr(parsed, "file_name", None) != file_name:
                continue
            try:
                validated = self.validator.validate(entry.element, self.clock.now)
            except SecurityError:
                continue
            adv = validated.advertisement
            if isinstance(adv, FileAdvertisement):
                return adv.sha256_hex
        return None

    def _fn_secure_file_request(self, message: Message, src: str) -> Message:
        return sf.handle_file_request(
            message, keystore=self.keystore, files=self.files,
            validator=self.validator, policy=self.policy,
            drbg=self.control.drbg, now=self.clock.now,
            metrics=self.metrics, resume_store=self.resume_store,
            resume_sessions=self.resume_sessions)

    # ======================================================================
    # secure executable primitives (further work, §6)
    # ======================================================================

    def set_task_acl(self, usernames: set[str] | None) -> None:
        """Restrict who may run tasks here (None = any validated user)."""
        self.task_acl = set(usernames) if usernames is not None else None

    @primitive("executable", secure=True)
    def secure_submit_task(self, peer_id: str, group: str, task_name: str,
                           argument: str) -> str:
        """secure_submit_task: authenticated, encrypted remote execution.

        The §6 further-work set: the request is signed and sealed; the
        executor validates the requester's credential chain and checks its
        ACL before running anything.
        """
        self._require_login()
        if not self.keystore.chain:
            raise SecurityError("secure_submit_task requires a credential")
        executor = self._resolve_validated_pipe(peer_id, group)
        executor_pipe = executor.advertisement
        assert isinstance(executor_pipe, PipeAdvertisement)
        request = sx.build_task_request(
            task_name=task_name, argument=argument, keystore=self.keystore,
            executor_key=executor.credential.public_key, policy=self.policy,
            drbg=self.control.drbg, now=self.clock.now)
        self.events.emit("task_submitted", peer_id=peer_id, task=task_name)
        resp = self.control.endpoint.request(executor_pipe.address, request)
        result = sx.parse_task_response(
            resp, self.keystore, executor.credential.public_key, policy=self.policy)
        self.events.emit("task_result", peer_id=peer_id, task=task_name,
                         result=result)
        return result

    def _fn_secure_task_request(self, message: Message, src: str) -> Message:
        return sx.handle_task_request(
            message, keystore=self.keystore, tasks=self.task_functions,
            acl=self.task_acl, policy=self.policy, drbg=self.control.drbg,
            now=self.clock.now, metrics=self.metrics)

    # ======================================================================
    # policy enforcement over the plain primitives
    # ======================================================================

    def send_msg_peer(self, peer_id: str, group: str, text: str, *,
                      retry: RetryPolicy | None = None,
                      timeout: Timeout | None = None):
        if self.policy.enforce_secure_messaging:
            raise PolicyError(
                "plain send_msg_peer is disabled by the security policy; "
                "use secure_msg_peer")
        return super().send_msg_peer(peer_id, group, text,
                                     retry=retry, timeout=timeout)
