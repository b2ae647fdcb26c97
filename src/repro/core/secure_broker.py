"""The security-aware broker: Broker Module + the paper's extension.

A :class:`SecureBroker` is a stock :class:`~repro.overlay.broker.Broker`
(it still answers every plain function, since the extension coexists with
the original primitives) plus:

* an RSA key pair and an admin-issued credential ``Cred_Br^Adm`` (§4.1),
* the ``secureConnection`` function: challenge signing + sid issuance,
* the ``secureLogin`` function: envelope decryption, sid consumption
  (replay protection), database check, CBID/key-authenticity check, and
  client credential issuance ``Cred_Cl^Br``.
"""

from __future__ import annotations

from repro import obs, wire
from repro.core import secure_connection as sc
from repro.core import secure_login as sl
from repro.core.admin import Administrator
from repro.core.credentials import Credential, issue_credential
from repro.core.keystore import Keystore
from repro.core.policy import DEFAULT_POLICY, SecurityPolicy
from repro.core.revocation import RevocationList, RevocationRegistry
from repro.core.secure_federation import SecureFederation
from repro.core.session import SidStore
from repro.crypto.drbg import HmacDrbg
from repro.errors import (
    CBIDMismatchError,
    ClientAuthenticationError,
    ReplayError,
)
from repro.jxta.advertisements import PeerAdvertisement
from repro.jxta.ids import parse_id
from repro.jxta.messages import Message
from repro.net.base import Transport
from repro.overlay.broker import Broker
from repro.overlay.groupcast import Groupcast
from repro.overlay import groupcast as gc
from repro.overlay.database import UserDatabase


class SecureBroker(Broker):
    """Broker with the secureConnection / secureLogin functions installed."""

    def __init__(self, network: Transport, address: str,
                 database: UserDatabase,
                 drbg: HmacDrbg, keystore: Keystore, name: str = "",
                 policy: SecurityPolicy = DEFAULT_POLICY) -> None:
        super().__init__(network, address, database, drbg, name=name)
        if not keystore.chain:
            raise ClientAuthenticationError(
                "a secure broker needs an (admin-issued) credential chain")
        keystore.require_anchor()
        self.keystore = keystore
        self.policy = policy.validate()
        # A secure broker's peer id is its CBID, replacing the random id.
        self.peer_id = keystore.cbid
        # Swap in the signing federation; the fed_* handlers installed by
        # the base class delegate through this attribute at call time.
        self.federation = SecureFederation(self)
        self.sids = SidStore(self.clock, drbg.fork(b"sids"))
        self.revocations = RevocationRegistry(
            keystore.keys.private, keystore.cbid, drbg.fork(b"revoke"))
        self._current_rl: RevocationList | None = None
        self.groupcast = Groupcast(self)
        self._install_secure_functions()

    @classmethod
    def create(cls, network: Transport, address: str,
               admin: Administrator,
               drbg: HmacDrbg, name: str = "",
               policy: SecurityPolicy = DEFAULT_POLICY,
               keys=None) -> "SecureBroker":
        """System setup (§4.1): generate PK_Br/SK_Br, obtain Cred_Br^Adm."""
        keystore = (Keystore(keys) if keys is not None
                    else Keystore.generate(policy.rsa_bits, drbg.fork(b"broker-keys")))
        broker_cred = admin.issue_broker_credential(
            keystore.keys.public, name or address, now=network.clock.now)
        keystore.install_anchor(admin.credential)
        keystore.install_chain([broker_cred])
        return cls(network, address, admin.database, drbg, keystore,
                   name=name, policy=policy)

    @property
    def credential(self) -> Credential:
        """Cred_Br^Adm."""
        return self.keystore.credential

    def restart(self) -> None:
        """Crash-restart: the one-shot sid store lives in RAM and is lost.

        Stale sids issued before the crash therefore stay unusable after
        it (see :meth:`repro.core.session.SidStore.reset`); the broker's
        key pair, credential chain and revocation registry are durable
        and survive, so existing peer credentials still validate.
        """
        super().restart()
        self.sids.reset()
        self.groupcast.reset()

    def _install_secure_functions(self) -> None:
        from repro.core import secure_groups as sg

        self._install({
            sc.CONNECT_REQ: self.fn_secure_connect,
            sl.LOGIN_REQ: self.fn_secure_login,
            "revocation_req": self.fn_revocation_list,
            "renew_req": self.fn_renew_credential,
            sg.GROUP_OP_REQ: self.fn_secure_group_op,
            sg.EPOCH_REQ: self.fn_group_epoch,
            gc.GROUP_SUB: self.groupcast.fn_sub,
            gc.GROUP_UNSUB: self.groupcast.fn_unsub,
            gc.GROUP_CAST: self.groupcast.fn_cast,
            gc.FED_GROUP_CAST: self.groupcast.fn_fed_cast,
            gc.FED_GROUP_EPOCH: self.groupcast.fn_fed_epoch,
            gc.FED_GROUP_EPOCH_REQ: self.groupcast.fn_fed_epoch_req,
        })

    def fn_secure_group_op(self, message: Message, src: str) -> Message:
        """Authenticated group management (§6 further work)."""
        from repro.core import secure_groups as sg

        return sg.handle_group_op(message, self)

    def fn_group_epoch(self, message: Message, src: str) -> Message:
        """Hand an entitled member its group epoch keys (signed RPC)."""
        from repro.core import secure_groups as sg

        return sg.handle_epoch_fetch(message, self)

    def _group_membership_changed(self, group_name: str,
                                  joined: str | None = None,
                                  left: str | None = None,
                                  churn: bool = False) -> None:
        self.groupcast.on_membership_change(group_name, joined=joined,
                                            left=left, churn=churn)

    # -- credential revocation (further work, §6) ---------------------------

    def revoke_peer(self, peer_id: str) -> None:
        """Revoke a credential subject, disconnect it, notify everyone."""
        self.revocations.revoke(peer_id)
        session = self.connected.get(peer_id)
        if session is not None:
            self._disconnect(session)
        self.publish_revocations()

    def revoke_user(self, username: str) -> list[str]:
        """Revoke every live session credential of ``username``."""
        revoked = [s.peer_id for s in self.connected.values()
                   if s.username == username]
        for peer_id in revoked:
            self.revocations.revoke(peer_id)
            self._disconnect(self.connected[peer_id])
        self.publish_revocations()
        return revoked

    def publish_revocations(self) -> "RevocationList":
        """Sign the current list and push it to all connected peers."""
        self._current_rl = self.revocations.current_list(self.clock.now)
        push = Message("revocation_push")
        push.add_xml("rl", self._current_rl.element)
        for session in list(self.connected.values()):
            self.control.endpoint.send(session.address, push)
        self.metrics.incr("fn.revocations_published")
        return self._current_rl

    def fn_revocation_list(self, message: Message, src: str) -> Message:
        """Serve the freshest signed revocation list on demand."""
        self.metrics.incr("fn.revocation_req")
        if self._current_rl is None:
            self._current_rl = self.revocations.current_list(self.clock.now)
        out = Message("revocation_resp")
        out.add_xml("rl", self._current_rl.element)
        return out

    # -- credential renewal (further work, §6) ------------------------------

    RENEW_AAD = b"jxta-overlay-renew-credential"

    def fn_renew_credential(self, message: Message, src: str) -> Message:
        """Re-issue Cred_Cl^Br for a still-valid, non-revoked session.

        The request is signed with the client's key and sealed to us, so
        renewal proves continuous possession of SK_Cl; an expired or
        revoked credential cannot renew (the chain check fails first).
        """
        from repro.core.secure_rpc import open_signed_request

        self.metrics.incr("fn.renew")
        try:
            opened = open_signed_request(
                wire.decode(message)["envelope"], self.keystore,
                self.clock.now, self.RENEW_AAD, "RenewRequest")
        except Exception as exc:
            self.metrics.incr("fn.renew.rejected")
            return self._fail("renew_fail", f"renewal rejected: {exc}")
        subject = str(opened.requester.subject_id)
        if self.revocations.is_revoked(subject):
            self.metrics.incr("fn.renew.revoked")
            return self._fail("renew_fail", "subject credential is revoked")
        session = self.connected.get(subject)
        if session is None or session.username != opened.requester.subject_name:
            self.metrics.incr("fn.renew.no_session")
            return self._fail("renew_fail", "no matching authenticated session")
        now = self.clock.now
        fresh = issue_credential(
            issuer_key=self.keystore.keys.private,
            issuer_id=self.keystore.cbid,
            issuer_name=self.name,
            subject_key=opened.requester.public_key,
            subject_name=session.username,
            not_before=now,
            not_after=now + self.policy.credential_lifetime,
            drbg=self.control.drbg)
        self.metrics.incr("fn.renew.issued")
        out = Message("renew_ok")
        out.add_xml("credential", fresh.to_element())
        return out

    # -- secureConnection, broker side (§4.2.1 steps 4-5) -------------------

    def fn_secure_connect(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.secure_connect")
        try:
            chall = sc.parse_connect_request(message)
        except Exception:
            self.metrics.incr("fn.secure_connect.malformed")
            return self._fail(sc.CONNECT_FAIL, "malformed challenge")
        sid = self.sids.issue(src)
        return sc.build_connect_response(
            chall, sid, self.keystore.keys.private, self.keystore.chain,
            scheme=self.policy.signature_scheme,
            drbg=self.control.drbg)

    # -- secureLogin, broker side (§4.2.2 steps 4-9) --------------------------

    def fn_secure_login(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.secure_login")
        # Steps 4 + 7: decrypt; CBID and signature checks.
        try:
            claim = sl.open_login_request(message, self.keystore.keys.private)
        except CBIDMismatchError as exc:
            self.metrics.incr("fn.secure_login.cbid_mismatch")
            obs.emit("on_credential_rejected", peer=src, reason=str(exc))
            return self._fail(sl.LOGIN_FAIL, str(exc))
        except ClientAuthenticationError as exc:
            self.metrics.incr("fn.secure_login.malformed")
            obs.emit("on_credential_rejected", peer=src, reason=str(exc))
            return self._fail(sl.LOGIN_FAIL, str(exc))
        # Step 5: consume the sid exactly once (replay protection).
        try:
            self.sids.consume(claim.sid)
        except ReplayError as exc:
            self.metrics.incr("fn.secure_login.replayed")
            obs.emit("on_replay_blocked", peer=claim.peer_id, kind="sid")
            return self._fail(sl.LOGIN_FAIL, f"login aborted: {exc}")
        # Step 6: username/password against the central database.
        if not self.database.check_credentials(claim.username, claim.password):
            self.metrics.incr("fn.secure_login.rejected")
            obs.emit("on_credential_rejected", peer=claim.peer_id,
                     reason="bad username or password")
            return self._fail(sl.LOGIN_FAIL,
                              "end user is an impersonator: bad credentials")
        # Step 8: issue cr = Cred_Cl^Br.
        now = self.clock.now
        credential = issue_credential(
            issuer_key=self.keystore.keys.private,
            issuer_id=self.keystore.cbid,
            issuer_name=self.name,
            subject_key=claim.public_key,
            subject_name=claim.username,
            not_before=now,
            not_after=now + self.policy.credential_lifetime,
            drbg=self.control.drbg)
        # Shared post-auth bookkeeping (sessions, groups, propagation).
        peer_adv = PeerAdvertisement(
            peer_id=parse_id(claim.peer_id, "peer"),
            name=claim.peer_name, address=claim.peer_address)
        groups = self.register_session(claim.peer_id, claim.username, src)
        self.federation.route_publish(peer_adv.to_element(),
                                      shard_key=claim.peer_id)
        self.metrics.incr("fn.secure_login.issued")
        obs.emit("on_credential_issued", peer=claim.peer_id,
                 subject=claim.username)
        # Step 9: Cl <- Br : { cr }.
        return sl.build_login_response(credential, groups)
