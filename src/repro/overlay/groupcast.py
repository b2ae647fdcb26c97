"""Broker-mediated secure group fan-out (group-cast).

The paper's ``secureMsgPeerGroup`` (§4.3) iterates from the *sender*:
resolve + seal + push once per member, so per-sender cost grows linearly
with the group.  Group-cast inverts the shape::

    sender --group_cast--> home broker --fed_group_cast--> member shards
                                 |                               |
                           group_deliver                   group_deliver
                                 v                               v
                          local subscribers              local subscribers

* The sender seals **once** under the group's current *epoch key*
  (:mod:`repro.crypto.groupkey`) and sends one ``group_cast`` frame.
* Its home broker checks the session + membership, stamps a local
  sequence number, delivers to its own subscribers, and relays the
  ciphertext verbatim to every federated broker as ``fed_group_cast``
  datagrams inside one corked section — on a batching transport the
  whole relay rides the link queues as coalesced wire units.
* Delivery is **interest-based**: clients opt in per group with
  ``group_sub`` / ``group_unsub``, so idle members cost nothing.
* Each broker keeps a bounded **store-and-forward** backlog per group
  and replays frames a re-subscribing member missed (``since`` high
  water mark), filtered by the member's key entitlement.

Epoch authority: the federation's shard owner of ``group|<name>`` mints
random epoch secrets, one per membership change.  Other brokers pull
secrets over the authenticated ``fed_group_epoch_req/ok`` exchange —
each secret individually envelope-sealed to the requesting broker's
admin-certified key — and hand them to *entitled* local members (from
their join epoch onward, never earlier).  Relaying brokers never need
the key at all: they forward ciphertext.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs, wire
from repro.crypto import envelope
from repro.crypto.groupkey import EPOCH_SECRET_LEN, GroupKeyRing
from repro.errors import DecryptionError, JxtaError, NetworkError, OverlayError
from repro.jxta.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.secure_broker import SecureBroker

# client <-> home broker
GROUP_SUB = "group_sub"
GROUP_SUB_OK = "group_sub_ok"
GROUP_SUB_FAIL = "group_sub_fail"
GROUP_UNSUB = "group_unsub"
GROUP_UNSUB_OK = "group_unsub_ok"
GROUP_CAST = "group_cast"
GROUP_CAST_OK = "group_cast_ok"
GROUP_CAST_FAIL = "group_cast_fail"
GROUP_DELIVER = "group_deliver"

# broker <-> broker (signed fed_* frames)
FED_GROUP_CAST = "fed_group_cast"
FED_GROUP_EPOCH = "fed_group_epoch"
FED_GROUP_EPOCH_REQ = "fed_group_epoch_req"
FED_GROUP_EPOCH_OK = "fed_group_epoch_ok"
FED_GROUP_EPOCH_FAIL = "fed_group_epoch_fail"

#: AAD for epoch secrets envelope-sealed broker-to-broker
EPOCH_AAD = b"jxta-overlay-group-epoch-secret"

#: group-cast shard keys live in their own ring namespace
_SHARD_PREFIX = "group|"


@dataclass
class _Stored:
    """One backlog entry of the store-and-forward queue."""

    seq: int
    epoch: int
    from_peer: str
    env: dict
    at: float


@dataclass
class _Shard:
    """Per-group state on one broker."""

    ring: GroupKeyRing
    #: raw epoch secrets (to hand to entitled clients / peer brokers)
    secrets: dict[int, bytes] = field(default_factory=dict)
    #: interest registrations: peer_id -> client address
    subscribers: dict[str, str] = field(default_factory=dict)
    #: first epoch each locally-homed member may read from
    entitled: dict[str, int] = field(default_factory=dict)
    #: bounded store-and-forward queue, oldest first
    backlog: deque = field(default_factory=deque)
    #: local delivery sequence (per broker, per group)
    seq: int = 0


class Groupcast:
    """Group-cast state machine of one :class:`SecureBroker`."""

    def __init__(self, broker: "SecureBroker") -> None:
        self.broker = broker
        self.drbg = broker.control.drbg.fork(b"groupcast")
        self._shards: dict[str, _Shard] = {}

    # -- plumbing ----------------------------------------------------------

    @property
    def fed(self):
        return self.broker.federation

    def reset(self) -> None:
        """Crash-restart: every shard (keys, interest, backlog) is RAM."""
        self._shards.clear()

    def _shard(self, group: str) -> _Shard:
        shard = self._shards.get(group)
        if shard is None:
            shard = _Shard(ring=GroupKeyRing(
                group, suite=self.broker.policy.envelope_suite,
                history=self.broker.policy.group_epoch_history))
            self._shards[group] = shard
        return shard

    def _owner_address(self, group: str) -> str:
        return self.fed.owner_of(_SHARD_PREFIX + group)

    def _is_owner(self, group: str) -> bool:
        return self._owner_address(group) == self.broker.address

    def _fail(self, msg_type: str, reason: str, code: str = "") -> Message:
        out = Message(msg_type)
        out.add_text("reason", reason)
        if code:
            out.add_text("code", code)
            obs.get_registry().incr(f"groupcast.reject.{code}")
        return out

    def _install_secret(self, shard: _Shard, epoch: int, secret: bytes) -> None:
        shard.ring.install(epoch, secret)
        shard.secrets[epoch] = secret
        while len(shard.secrets) > shard.ring.history:
            del shard.secrets[min(shard.secrets)]

    # -- epoch rotation ----------------------------------------------------

    def on_membership_change(self, group: str, joined: str | None = None,
                             left: str | None = None,
                             churn: bool = False) -> None:
        """Rotate the group's epoch key (every membership change).

        ``churn`` distinguishes a dropped session from an explicit
        leave: a churned member keeps its *entitlement* (its database
        membership persists, so on reconnect the backlog replays what it
        missed), while a leaver loses access to everything after its
        departure epoch — forward secrecy is against *departure*, not
        against a flaky link.
        """
        broker = self.broker
        if not broker.policy.enable_group_cast:
            return
        shard = self._shard(group)
        registry = obs.get_registry()
        if left is not None:
            shard.subscribers.pop(left, None)
            if not churn:
                shard.entitled.pop(left, None)
        if self._is_owner(group):
            epoch = shard.ring.epoch + 1
            self._install_secret(shard, epoch, self.drbg.generate(EPOCH_SECRET_LEN))
            self._announce(group, epoch)
            registry.incr("groupcast.rotate")
        elif self._pull_epochs(group, rotate=True):
            registry.incr("groupcast.rotate")
        else:
            # Owner unreachable: keep serving under the old epoch rather
            # than wedging the group; the next successful pull catches up.
            registry.incr("groupcast.rotate.degraded")
        self._sync_group_meta(group, shard, joined)
        if joined is not None and shard.ring.epoch:
            shard.entitled.setdefault(joined, shard.ring.epoch)

    def _sync_group_meta(self, group: str, shard: _Shard,
                         joined: str | None) -> None:
        """Mirror the shard's epoch into the broker's group table."""
        record = self.broker.groups.get_or_none(group)
        if record is not None and shard.ring.epoch:
            record.epoch = shard.ring.epoch
            if joined is not None:
                record.member_since[joined] = shard.ring.epoch

    def _announce(self, group: str, epoch: int, exclude: tuple = ()) -> None:
        note = Message(FED_GROUP_EPOCH)
        note.add_text("group", group)
        note.add_text("epoch", str(epoch))
        self.fed.broadcast(note, exclude=exclude)

    def _pull_epochs(self, group: str, rotate: bool = False) -> bool:
        """Fetch the group's epoch secrets from its shard owner."""
        broker = self.broker
        owner = self._owner_address(group)
        if owner == broker.address:
            return True
        req = Message(FED_GROUP_EPOCH_REQ)
        req.add_text("group", group)
        if rotate:
            req.add_text("rotate", "1")
        registry = obs.get_registry()
        try:
            resp = self.fed._request(owner, req)
        except (NetworkError, OverlayError, JxtaError):
            registry.incr("groupcast.epoch.pull_failed")
            return False
        if (resp.msg_type != FED_GROUP_EPOCH_OK
                or not self.fed.authorize(resp, owner, link=True)):
            registry.incr("groupcast.epoch.pull_failed")
            return False
        frame = wire.decode(resp)
        shard = self._shard(group)
        own_key = broker.keystore.keys.private
        for epoch_text, env in sorted(frame["secrets"].items(),
                                      key=lambda kv: int(kv[0])):
            epoch = int(epoch_text)
            if epoch in shard.secrets:
                continue
            try:
                secret = envelope.open_(own_key, env, aad=EPOCH_AAD)
            except (DecryptionError, ValueError, TypeError, KeyError):
                registry.incr("groupcast.epoch.bad_secret")
                continue
            if len(secret) != EPOCH_SECRET_LEN:
                registry.incr("groupcast.epoch.bad_secret")
                continue
            self._install_secret(shard, epoch, secret)
        registry.incr("groupcast.epoch.pull")
        return shard.ring.epoch > 0

    def ensure_keys(self, group: str) -> _Shard:
        """The shard, with epochs pulled from the owner when behind."""
        shard = self._shard(group)
        if not self._is_owner(group) and shard.ring.epoch == 0:
            self._pull_epochs(group)
        return shard

    def secrets_for(self, group: str, peer_id: str) -> dict[int, bytes]:
        """The epoch secrets ``peer_id`` is entitled to (join onward)."""
        shard = self.ensure_keys(group)
        floor = shard.entitled.get(peer_id, 0)
        return {epoch: secret for epoch, secret in sorted(shard.secrets.items())
                if epoch >= floor}

    # -- federation handlers (signed fed_* frames) -------------------------

    def fn_fed_epoch_req(self, message: Message, src: str) -> Message:
        """Serve (and on request mint) epoch secrets — shard owner only."""
        broker = self.broker
        registry = obs.get_registry()
        if not self.fed.authorize(message, src, link=True):
            registry.incr("groupcast.fed.unauthorized")
            return self.fed.seal(self._fail(FED_GROUP_EPOCH_FAIL,
                                            "unauthorized"))
        frame = wire.decode(message)
        group = frame["group"]
        if not self._is_owner(group):
            return self.fed.seal(self._fail(FED_GROUP_EPOCH_FAIL,
                                            "not the shard owner"))
        shard = self._shard(group)
        if frame.has("rotate") or shard.ring.epoch == 0:
            epoch = shard.ring.epoch + 1
            self._install_secret(shard, epoch, self.drbg.generate(EPOCH_SECRET_LEN))
            self._sync_group_meta(group, shard, None)
            self._announce(group, epoch, exclude=(src,))
        peer_key = getattr(self.fed, "peer_keys", {}).get(src)
        if peer_key is None:
            return self.fed.seal(self._fail(FED_GROUP_EPOCH_FAIL,
                                            "no verified key for requester"))
        policy = broker.policy
        sealed = {str(epoch): envelope.seal(
            peer_key, secret, drbg=self.drbg, suite=policy.envelope_suite,
            wrap=policy.envelope_wrap, aad=EPOCH_AAD)
            for epoch, secret in shard.secrets.items()}
        registry.incr("groupcast.epoch.serve")
        out = Message(FED_GROUP_EPOCH_OK)
        out.add_text("group", group)
        out.add_text("epoch", str(shard.ring.epoch))
        out.add_json("secrets", sealed)
        return self.fed.seal(out)

    def fn_fed_epoch(self, message: Message, src: str) -> None:
        """Rotation announcement: refresh eagerly if we host the group."""
        broker = self.broker
        if not self.fed.authorize(message, src):
            return None
        if not broker.policy.enable_group_cast:
            return None
        group = wire.decode(message)["group"]
        if broker.groups.get_or_none(group) is None:
            return None
        self._pull_epochs(group)
        return None

    def fn_fed_cast(self, message: Message, src: str) -> None:
        """A peer broker relayed a group frame: deliver to our shard."""
        broker = self.broker
        registry = obs.get_registry()
        if not self.fed.authorize(message, src):
            registry.incr("groupcast.fed.unauthorized")
            return None
        if not broker.policy.enable_group_cast:
            return None
        frame = wire.decode(message)
        group = frame["group"]
        registry.incr("groupcast.relay.received")
        shard = self._shards.get(group)
        if shard is None and broker.groups.get_or_none(group) is None:
            # No local members, no interest: drop without creating state.
            registry.incr("groupcast.relay.ignored")
            return None
        shard = self._shard(group)
        entry = self._store(shard, int(frame["epoch"]), frame["from_peer"],
                            frame["envelope"])
        self._deliver_local(group, shard, entry, exclude=frame["from_peer"])
        return None

    # -- client-facing handlers --------------------------------------------

    def fn_sub(self, message: Message, src: str) -> Message:
        """Register interest; replay the backlog past ``since``."""
        broker = self.broker
        broker.metrics.incr("fn.group_sub")
        if not broker.policy.enable_group_cast:
            return self._fail(GROUP_SUB_FAIL, "group cast is disabled",
                              code="disabled")
        session = broker._session_for_address(src)
        if session is None:
            return self._fail(GROUP_SUB_FAIL, "not logged in",
                              code="no_session")
        frame = wire.decode(message)
        group = frame["group"]
        record = broker.groups.get_or_none(group)
        if record is None or not record.has_member(session.peer_id):
            return self._fail(GROUP_SUB_FAIL,
                              f"not a member of {group!r}", code="not_member")
        shard = self.ensure_keys(group)
        shard.subscribers[session.peer_id] = src
        since = int(frame.get("since") or 0)
        replayed = self._replay(group, shard, session.peer_id, src, since)
        obs.get_registry().incr("groupcast.sub")
        out = Message(GROUP_SUB_OK)
        out.add_text("group", group)
        out.add_text("epoch", str(shard.ring.epoch))
        out.add_text("replayed", str(replayed))
        return out

    def fn_unsub(self, message: Message, src: str) -> Message:
        broker = self.broker
        broker.metrics.incr("fn.group_unsub")
        group = wire.decode(message)["group"]
        session = broker._session_for_address(src)
        if session is not None:
            shard = self._shards.get(group)
            if shard is not None:
                shard.subscribers.pop(session.peer_id, None)
        obs.get_registry().incr("groupcast.unsub")
        out = Message(GROUP_UNSUB_OK)
        out.add_text("group", group)
        return out

    def fn_cast(self, message: Message, src: str) -> Message:
        """The O(1) send: one frame in, local fan-out + federation relay."""
        broker = self.broker
        broker.metrics.incr("fn.group_cast")
        registry = obs.get_registry()
        if not broker.policy.enable_group_cast:
            return self._fail(GROUP_CAST_FAIL, "group cast is disabled",
                              code="disabled")
        session = broker._session_for_address(src)
        if session is None:
            return self._fail(GROUP_CAST_FAIL, "not logged in",
                              code="no_session")
        frame = wire.decode(message)
        group = frame["group"]
        record = broker.groups.get_or_none(group)
        if record is None or not record.has_member(session.peer_id):
            return self._fail(GROUP_CAST_FAIL,
                              f"not a member of {group!r}", code="not_member")
        epoch = int(frame["epoch"])
        shard = self.ensure_keys(group)
        if epoch < shard.ring.epoch:
            return self._fail(
                GROUP_CAST_FAIL,
                f"epoch {epoch} was rotated out (current {shard.ring.epoch})",
                code="stale_epoch")
        if epoch > shard.ring.epoch:
            self._pull_epochs(group)
        if epoch != shard.ring.epoch or epoch == 0:
            return self._fail(
                GROUP_CAST_FAIL,
                f"unknown epoch {epoch} (current {shard.ring.epoch})",
                code="unknown_epoch")
        entry = self._store(shard, epoch, session.peer_id, frame["envelope"])
        delivered = self._deliver_local(group, shard, entry,
                                        exclude=session.peer_id)
        relayed = self._relay(group, entry)
        registry.incr("groupcast.cast")
        out = Message(GROUP_CAST_OK)
        out.add_text("seq", str(entry.seq))
        out.add_text("delivered", str(delivered))
        out.add_text("relayed", str(relayed))
        return out

    # -- fan-out machinery -------------------------------------------------

    def _store(self, shard: _Shard, epoch: int, from_peer: str,
               env: dict) -> _Stored:
        """Stamp a local seq and retain the frame for replay (bounded)."""
        broker = self.broker
        shard.seq += 1
        entry = _Stored(seq=shard.seq, epoch=epoch, from_peer=from_peer,
                        env=env, at=broker.clock.now)
        depth = broker.policy.group_replay_depth
        if depth <= 0:
            return entry
        self._prune(shard)
        shard.backlog.append(entry)
        registry = obs.get_registry()
        while len(shard.backlog) > depth:
            shard.backlog.popleft()
            registry.incr("groupcast.store.evicted")
        return entry

    def _prune(self, shard: _Shard) -> None:
        horizon = self.broker.clock.now - self.broker.policy.group_replay_ttl
        registry = obs.get_registry()
        while shard.backlog and shard.backlog[0].at < horizon:
            shard.backlog.popleft()
            registry.incr("groupcast.store.expired")

    def _deliver_frame(self, group: str, entry: _Stored) -> Message:
        deliver = Message(GROUP_DELIVER)
        deliver.add_text("group", group)
        deliver.add_text("epoch", str(entry.epoch))
        deliver.add_text("seq", str(entry.seq))
        deliver.add_text("from_peer", entry.from_peer)
        deliver.add_json("envelope", entry.env)
        return deliver

    def _deliver_local(self, group: str, shard: _Shard, entry: _Stored,
                       exclude: str | None = None) -> int:
        """Push one frame to every local subscriber, inside one cork."""
        broker = self.broker
        if not shard.subscribers:
            return 0
        deliver = self._deliver_frame(group, entry)
        endpoint = broker.control.endpoint
        delivered = 0
        with endpoint.corked():
            for peer_id, address in list(shard.subscribers.items()):
                if peer_id == exclude:
                    continue
                if peer_id not in broker.connected:
                    del shard.subscribers[peer_id]
                    continue
                if endpoint.send(address, deliver):
                    delivered += 1
        if delivered:
            obs.get_registry().incr("groupcast.delivered", delivered)
        return delivered

    def _relay(self, group: str, entry: _Stored) -> int:
        """Fan the ciphertext out to every federated broker (sealed once)."""
        relay = Message(FED_GROUP_CAST)
        relay.add_text("group", group)
        relay.add_text("epoch", str(entry.epoch))
        relay.add_text("seq", str(entry.seq))
        relay.add_text("from_peer", entry.from_peer)
        relay.add_text("origin", self.broker.address)
        relay.add_json("envelope", entry.env)
        relayed = self.fed.broadcast(relay)
        if relayed:
            obs.get_registry().incr("groupcast.relayed", relayed)
        return relayed

    def _replay(self, group: str, shard: _Shard, peer_id: str, address: str,
                since: int) -> int:
        """Store-and-forward: resend what a re-subscriber missed."""
        if not shard.backlog:
            return 0
        self._prune(shard)
        floor = shard.entitled.get(peer_id, 0)
        endpoint = self.broker.control.endpoint
        replayed = 0
        with endpoint.corked():
            # A snapshot: on sockets another worker may _store into the
            # backlog while this replay is sending.
            for entry in list(shard.backlog):
                if entry.seq <= since or entry.epoch < floor:
                    continue
                if entry.from_peer == peer_id:
                    continue
                if endpoint.send(address, self._deliver_frame(group, entry)):
                    replayed += 1
        if replayed:
            obs.get_registry().incr("groupcast.replayed", replayed)
        return replayed
