"""Broker federation: the sharded, message-only inter-broker layer.

The paper's broker tier "controls access to the network … and propagates
peer information across group members" (§2.1).  Early revisions of this
reproduction modelled that tier as a toy: brokers held direct Python
references to each other and replicated the *entire* resource index to
every peer via unsigned ``index_sync`` datagrams.  This module replaces
that with a real federated subsystem:

* **membership by address** — brokers know each other only by network
  address plus an advertisement-style member record; every inter-broker
  exchange is a :class:`~repro.jxta.messages.Message` frame over the
  simulated network, so fault plans (loss, partitions, crashes) apply to
  federation traffic exactly like client traffic;
* **consistent-hash sharding** — the resource index and the presence
  directory are partitioned across brokers by a :class:`HashRing` keyed
  on the advertisement's peer id.  Publish and lookup route to the shard
  owner; a non-owner answers with a ``fed_redirect`` the client follows
  (at most one hop).  A single broker is a ring of size one: every key
  is local and behaviour is exactly the pre-federation one;
* **digest-based anti-entropy** — linking brokers no longer copies the
  full index.  Each side offers a per-entry digest map of what it holds
  that the other *owns* (``fed_digest``), receives back the keys the
  owner actually needs, and ships only those in batched ``fed_delta``
  frames.  The same exchange runs periodically (see
  :class:`~repro.overlay.presence.FederationSweeper`) and heals
  partitions: entries published degraded at a non-owner while the owner
  was unreachable are handed off once the wire comes back.

The plain variant here performs *membership* checks only (era-faithful:
nothing is signed).  The secure stack subclasses this in
:mod:`repro.core.secure_federation`, signing every federation frame
under the broker's admin-issued credential so a rogue endpoint cannot
poison the shard it does not own.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro import obs, wire
from repro.crypto.sha2 import sha256
from repro.errors import JxtaError, NetworkError, OverlayError
from repro.jxta.advertisements import Advertisement
from repro.jxta.messages import Message
from repro.overlay.control import merge_results, pack_results, unpack_results
from repro.xmllib import Element, canonicalize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (broker imports us)
    from repro.overlay.broker import Broker

#: virtual nodes per broker on the hash ring; enough that a handful of
#: brokers split a few hundred keys within a small constant of 1/N each
VNODES = 128

#: advertisements per ``fed_delta`` frame during anti-entropy — the
#: fallback when the broker has no :class:`~repro.net.linkq.LinkPolicy`
#: (``enable_link_batching`` makes it a configurable knob,
#: ``LinkPolicy.delta_batch``)
DELTA_BATCH = 32

#: directory entries from a crashed/unreachable home broker expire after
#: this many virtual seconds without a re-up (sweeps refresh live ones)
DIRECTORY_MAX_AGE = 600.0


#: ``fed.*`` counter handles, interned on first use (hot routing paths).
_FED_COUNTERS: dict[str, obs.InternedCounter] = {}


def fed_metric(name: str, by: int = 1) -> None:
    """Counter increment guarded on the registry switch (hot paths)."""
    counter = _FED_COUNTERS.get(name)
    if counter is None:
        counter = _FED_COUNTERS[name] = obs.InternedCounter(name)
    counter.incr(by)


def entry_key(parsed: Advertisement) -> str:
    """The wire form of a cache entry's replacement key."""
    return "|".join(parsed.key())


def entry_digest(element: Element) -> str:
    """Content digest used by the anti-entropy exchange."""
    return sha256(canonicalize(element)).hex()[:16]


class HashRing:
    """Consistent hashing with virtual nodes over broker addresses.

    Keys and node addresses are hashed onto the same 64-bit circle; a
    key is owned by the first node point at or after it.  Adding or
    removing one broker moves only the keys in the arcs it gains or
    loses (≈1/N of the space), which is what keeps link-time anti-entropy
    a *delta* instead of a full copy.
    """

    #: Memoized owner lookups are capped so an adversarial key stream
    #: cannot grow the cache without bound; a full cache is simply
    #: cleared (lookups stay correct, they just recompute).
    OWNER_CACHE_MAX = 4096

    def __init__(self, vnodes: int = VNODES) -> None:
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []  # sorted (hash, address)
        self._nodes: set[str] = set()
        self._owner_cache: dict[str, str] = {}

    @staticmethod
    def _hash(label: str) -> int:
        return int.from_bytes(sha256(label.encode("utf-8"))[:8], "big")

    def add(self, address: str) -> None:
        if address in self._nodes:
            return
        self._nodes.add(address)
        for i in range(self.vnodes):
            self._points.append((self._hash(f"node|{address}|{i}"), address))
        self._points.sort()
        self._owner_cache.clear()

    def remove(self, address: str) -> None:
        if address not in self._nodes:
            return
        self._nodes.discard(address)
        self._points = [p for p in self._points if p[1] != address]
        self._owner_cache.clear()

    def owner(self, key: str) -> str:
        """The broker owning ``key`` — memoized until membership changes.

        Every lookup costs a SHA-256 plus a bisect; the shard owner of a
        given key only ever changes when a broker joins or leaves, so
        ``add``/``remove`` are the exact (and only) invalidation points.
        """
        cached = self._owner_cache.get(key)
        if cached is not None:
            return cached
        address = self.owner_uncached(key)
        if len(self._owner_cache) >= self.OWNER_CACHE_MAX:
            self._owner_cache.clear()
        self._owner_cache[key] = address
        return address

    def owner_uncached(self, key: str) -> str:
        """The reference lookup (hash + bisect every call)."""
        if not self._points:
            raise OverlayError("hash ring is empty")
        point = self._hash(f"key|{key}")
        index = bisect.bisect_right(self._points, (point, "￿"))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, address: str) -> bool:
        return address in self._nodes


@dataclass
class MemberRecord:
    """What one broker knows about a federated peer broker."""

    address: str
    broker_id: str = ""
    name: str = ""

    def to_json(self) -> dict:
        return {"address": self.address, "broker_id": self.broker_id,
                "name": self.name}

    @classmethod
    def from_json(cls, data: dict) -> "MemberRecord":
        return cls(address=str(data["address"]),
                   broker_id=str(data.get("broker_id", "")),
                   name=str(data.get("name", "")))


@dataclass
class DirectoryEntry:
    """Shard-owner view of one logged-in peer, fed by ``fed_presence``."""

    peer_id: str
    username: str
    address: str
    home: str          # broker address the session lives on
    last_seen: float


class Federation:
    """Per-broker federation state machine (plain, membership-checked).

    Owns the hash ring, the member table, the sharded presence
    directory, and every ``fed_*`` frame.  The broker installs thin
    delegating handlers so a subclass (the signing secure variant) can
    replace the whole object after construction.
    """

    def __init__(self, broker: "Broker",
                 directory_max_age: float = DIRECTORY_MAX_AGE) -> None:
        self.broker = broker
        self.ring = HashRing()
        self.ring.add(broker.address)
        self.members: dict[str, MemberRecord] = {}
        self.directory: dict[str, DirectoryEntry] = {}
        self.directory_max_age = directory_max_age

    # -- plumbing ----------------------------------------------------------

    @property
    def endpoint(self):
        return self.broker.control.endpoint

    @property
    def cache(self):
        return self.broker.control.cache

    @property
    def clock(self):
        return self.broker.control.clock

    @property
    def delta_batch(self) -> int:
        """Advertisements per anti-entropy delta frame (policy knob)."""
        policy = getattr(self.broker, "link_policy", None)
        return policy.delta_batch if policy is not None else DELTA_BATCH

    def owner_of(self, shard_key: str) -> str:
        return self.ring.owner(shard_key)

    def is_local(self, shard_key: str) -> bool:
        return self.owner_of(shard_key) == self.broker.address

    def self_record(self) -> MemberRecord:
        return MemberRecord(address=self.broker.address,
                            broker_id=str(self.broker.peer_id),
                            name=self.broker.name)

    def roster(self) -> list[dict]:
        """Every member record we know, ourselves included."""
        records = [self.self_record()] + list(self.members.values())
        return [r.to_json() for r in records]

    # -- security hooks (identity in the plain, era-faithful stack) --------

    def seal(self, message: Message) -> Message:
        """Attach sender authentication to an outgoing federation frame."""
        return message

    def authorize(self, message: Message, src: str, *,
                  link: bool = False, sync: bool = False) -> bool:
        """Admission control for an incoming federation frame.

        ``link=True`` frames (link handshake, membership gossip) are how
        brokers *become* members, so they skip the membership check; the
        secure subclass still demands a valid broker signature on them.
        ``sync=True`` marks legacy ``index_sync`` traffic so its rejects
        are counted under their own reason.
        """
        if link:
            return True
        if src in self.members:
            return True
        fed_metric("fed.reject.foreign_index_sync" if sync
                   else "fed.reject.not_member")
        return False

    def redirect(self, owner: str) -> Message:
        """The shard-miss response a client follows (at most one hop)."""
        fed_metric("fed.redirects")
        out = Message("fed_redirect")
        out.add_text("owner", owner)
        return self.seal(out)

    def _send(self, dst: str, message: Message) -> bool:
        return self.endpoint.send(dst, self.seal(message))

    def _request(self, dst: str, message: Message) -> Message:
        return self.endpoint.request(dst, self.seal(message))

    def broadcast(self, message: Message, *, exclude: tuple = ()) -> int:
        """Seal once, datagram every federation member, inside one cork.

        The relay fan-out of group-cast: the frame is sealed a single
        time and reused verbatim for every member, and the sends ride
        the link queues as coalesced datagrams on batching transports
        (mirroring :meth:`_ship_deltas`).  Returns how many members the
        frame was handed to the transport for.
        """
        targets = [a for a in self.members if a not in exclude]
        if not targets:
            return 0
        sealed = self.seal(message)
        sent = 0
        with self.endpoint.corked():
            for address in sorted(targets):
                if self.endpoint.send(address, sealed):
                    sent += 1
        fed_metric("fed.broadcast.sent", sent)
        return sent

    def _gauges(self) -> None:
        registry = obs.get_registry()
        registry.set_gauge("fed.members", len(self.members))
        registry.set_gauge("fed.owned_entries", len(self.cache))

    # -- membership --------------------------------------------------------

    def link(self, target) -> None:
        """Federate with another broker, by address or broker object.

        Message-only: a ``fed_link_req``/``fed_link_ok`` exchange swaps
        member rosters, then a digest-based sync hands over exactly the
        entries whose ownership moved — never the full index.
        """
        address = getattr(target, "address", None) or str(target)
        if address == self.broker.address:
            raise OverlayError("a broker cannot peer with itself")
        if address in self.members:
            return
        # Optimistic pre-add so the responder's inline hand-off frames
        # pass our membership check while we await the link response.
        self.members[address] = MemberRecord(address=address)
        self.ring.add(address)
        req = Message("fed_link_req")
        req.add_json("members", self.roster())
        try:
            resp = self._request(address, req)
            ok = (resp.msg_type == "fed_link_ok"
                  and self.authorize(resp, address, link=True))
        except NetworkError:
            ok = False
        if not ok:
            self.members.pop(address, None)
            self.ring.remove(address)
            raise OverlayError(
                f"broker at {address!r} refused or failed federation link")
        added = self._merge_members(wire.decode(resp)["members"])
        self._gauges()
        for new_address in dict.fromkeys([address, *added]):
            self.sync_with(new_address)

    def unlink(self, target) -> None:
        """Dissolve one federation link (pairwise, not gossiped)."""
        address = getattr(target, "address", None) or str(target)
        if address not in self.members:
            return
        self.members.pop(address, None)
        self.ring.remove(address)
        self._send(address, Message("fed_unlink"))
        self._gauges()

    def _merge_members(self, records: Iterable[dict],
                       announce: bool = True) -> list[str]:
        """Fold a received roster in; gossip onward only when it grew."""
        added: list[str] = []
        for data in records:
            try:
                record = MemberRecord.from_json(data)
            except (KeyError, TypeError):
                fed_metric("fed.reject.malformed")
                continue
            if record.address == self.broker.address:
                continue
            known = self.members.get(record.address)
            if known is not None:
                if record.broker_id and not known.broker_id:
                    self.members[record.address] = record
                continue
            self.members[record.address] = record
            self.ring.add(record.address)
            added.append(record.address)
        if added and announce:
            gossip = Message("fed_members")
            gossip.add_json("members", self.roster())
            sealed = self.seal(gossip)
            for address in self.members:
                self.endpoint.send(address, sealed)
        if added:
            self._gauges()
        return added

    # -- routing the broker's own publications -----------------------------

    def route_publish(self, element: Element, shard_key: str | None = None) -> None:
        """Index a broker-originated advertisement at its shard owner.

        Used for login peer advertisements and group advertisements.  A
        remote owner gets the entry via a single-element ``fed_delta``;
        while the owner is unreachable the entry is held locally and the
        next anti-entropy sweep completes the hand-off.
        """
        parsed = self.cache.publish(element)
        if shard_key is None:
            shard_key = str(parsed.peer_id)
        owner = self.owner_of(shard_key)
        if owner == self.broker.address:
            return
        if self._push_delta(owner, [element.deep_copy()]):
            self.cache.remove(parsed.key())
            fed_metric("fed.sync.remote_publish")
        else:
            fed_metric("fed.sync.degraded_publish")

    def note_degraded_publish(self) -> None:
        """A client published here because the shard owner was down."""
        fed_metric("fed.sync.degraded_publish")

    def _push_delta(self, address: str, elements: list[Element]) -> bool:
        req = Message("fed_delta")
        req.add_xml("advs", pack_results(elements))
        try:
            resp = self._request(address, req)
        except NetworkError:
            return False
        if resp.msg_type != "fed_delta_ok" or not self.authorize(
                resp, address, link=True):
            return False
        fed_metric("fed.sync.entries_sent", len(elements))
        return True

    # -- presence directory -------------------------------------------------

    def presence_up(self, peer_id: str, username: str, address: str,
                    last_seen: float) -> None:
        op = {"op": "up", "peer_id": peer_id, "username": username,
              "address": address, "home": self.broker.address,
              "last_seen": last_seen}
        self._presence_ops([op])

    def presence_down(self, peer_id: str) -> None:
        self._presence_ops([{"op": "down", "peer_id": peer_id,
                             "home": self.broker.address}])

    def _presence_ops(self, ops: list[dict]) -> None:
        local: list[dict] = []
        by_owner: dict[str, list[dict]] = {}
        for op in ops:
            owner = self.owner_of(op["peer_id"])
            if owner == self.broker.address:
                local.append(op)
            else:
                by_owner.setdefault(owner, []).append(op)
        for op in local:
            self._apply_presence_op(op)
        for owner, batch in by_owner.items():
            msg = Message("fed_presence")
            msg.add_json("ops", batch)
            self._send(owner, msg)

    def _apply_presence_op(self, op: dict) -> None:
        try:
            peer_id = str(op["peer_id"])
            kind = op["op"]
        except (KeyError, TypeError):
            fed_metric("fed.reject.malformed")
            return
        if kind == "up":
            self.directory[peer_id] = DirectoryEntry(
                peer_id=peer_id,
                username=str(op.get("username", "")),
                address=str(op.get("address", "")),
                home=str(op.get("home", "")),
                last_seen=float(op.get("last_seen", self.clock.now)))
            fed_metric("fed.presence.up")
        elif kind == "down":
            self.directory.pop(peer_id, None)
            self.cache.remove_peer(peer_id)
            fed_metric("fed.presence.down")
        else:
            fed_metric("fed.reject.malformed")

    # -- anti-entropy -------------------------------------------------------

    def _ship_deltas(self, address: str, need: list[str],
                     sendable: dict[str, Element],
                     digests: dict[str, str]) -> bool:
        """Ship the entries ``address`` asked for, then confirm receipt.

        Delta frames are best-effort datagrams issued inside a corked
        section, so on a batching transport the whole hand-off rides the
        link's send queue as a few coalesced wire units instead of one
        request round trip per :attr:`delta_batch` entries.  One
        confirming ``fed_digest`` round replaces the per-batch acks: the
        hand-off only counts (and local copies are only retired) if the
        owner's digest answer shows it now holds every shipped entry.
        """
        step = self.delta_batch
        with self.endpoint.corked():
            for start in range(0, len(need), step):
                batch = [sendable[k].deep_copy()
                         for k in need[start:start + step]]
                req = Message("fed_delta")
                req.add_xml("advs", pack_results(batch))
                if not self._send(address, req):
                    return False
                fed_metric("fed.sync.entries_sent", len(batch))
        confirm = Message("fed_digest")
        confirm.add_json("entries", {k: digests[k] for k in need})
        cresp = self._request(address, confirm)
        if cresp.msg_type != "fed_digest_resp" or not self.authorize(
                cresp, address, link=True):
            return False
        still_missing = set(wire.decode(cresp)["need"]) & set(need)
        return not still_missing

    def sync_with(self, address: str) -> bool:
        """One digest/delta round toward ``address`` (a shard owner).

        Offers digests of every local entry that broker owns, ships only
        the entries it reports missing or different, re-ups the presence
        of local sessions it owns, and — once the owner confirms — drops
        the local copies (the hand-off that keeps each entry single-homed).
        """
        if address not in self.members:
            return False
        fed_metric("fed.sync.rounds")
        sendable: dict[str, Element] = {}
        digests: dict[str, str] = {}
        for entry in self.cache.find():
            if self.owner_of(str(entry.parsed.peer_id)) != address:
                continue
            key = entry_key(entry.parsed)
            sendable[key] = entry.element
            digests[key] = entry_digest(entry.element)
        ups = []
        for session in self.broker.connected.values():
            if self.owner_of(session.peer_id) == address:
                ups.append({"op": "up", "peer_id": session.peer_id,
                            "username": session.username,
                            "address": session.address,
                            "home": self.broker.address,
                            "last_seen": session.last_seen})
        moved = [pid for pid in self.directory
                 if self.owner_of(pid) == address]
        for pid in moved:
            entry = self.directory[pid]
            ups.append({"op": "up", "peer_id": pid,
                        "username": entry.username, "address": entry.address,
                        "home": entry.home, "last_seen": entry.last_seen})
        try:
            if digests:
                dreq = Message("fed_digest")
                dreq.add_json("entries", digests)
                dresp = self._request(address, dreq)
                if dresp.msg_type != "fed_digest_resp" or not self.authorize(
                        dresp, address, link=True):
                    fed_metric("fed.sync.failed")
                    return False
                fed_metric("fed.sync.digest_keys", len(digests))
                need = [k for k in wire.decode(dresp)["need"] if k in sendable]
                if need and not self._ship_deltas(address, need, sendable,
                                                  digests):
                    fed_metric("fed.sync.failed")
                    return False
            if ups:
                msg = Message("fed_presence")
                msg.add_json("ops", ups)
                self._send(address, msg)
                fed_metric("fed.presence.refreshed", len(ups))
        except NetworkError:
            fed_metric("fed.sync.failed")
            return False
        # The owner confirmed it holds (or already held) every offered
        # entry: retire the local copies and the moved directory rows.
        for key_str, element in sendable.items():
            parsed = Advertisement.from_element(element)
            self.cache.remove(parsed.key())
        if sendable:
            fed_metric("fed.sync.handoff_removed", len(sendable))
        for pid in moved:
            self.directory.pop(pid, None)
        return True

    def sweep(self) -> None:
        """Periodic anti-entropy: expire stale directory rows, sync all."""
        now = self.clock.now
        for pid, entry in list(self.directory.items()):
            if (entry.home != self.broker.address
                    and now - entry.last_seen > self.directory_max_age):
                self.directory.pop(pid, None)
                fed_metric("fed.presence.expired")
        for address in list(self.members):
            self.sync_with(address)
        self._gauges()

    # -- scatter for unkeyed queries ----------------------------------------

    def scatter_query(self, local_elements: list[Element],
                      adv_type: str | None, group: str | None) -> list[Element]:
        """Merge a type/group query across every shard (no key to route)."""
        gathered = [local_elements]
        for address in list(self.members):
            req = Message("fed_query")
            if adv_type:
                req.add_text("adv_type", adv_type)
            if group:
                req.add_text("group", group)
            fed_metric("fed.scatter")
            try:
                resp = self._request(address, req)
            except NetworkError:
                fed_metric("fed.scatter_miss")
                continue
            if resp.msg_type != "fed_query_resp" or not self.authorize(
                    resp, address, link=True):
                fed_metric("fed.scatter_miss")
                continue
            try:
                gathered.append(unpack_results(wire.decode(resp)["results"]))
            except (OverlayError, JxtaError):
                fed_metric("fed.reject.malformed")
        return merge_results(*gathered)

    # -- incoming frame handlers (installed via the broker) ------------------

    def fn_link_req(self, message: Message, src: str) -> Message | None:
        if not self.authorize(message, src, link=True):
            return None
        try:
            roster = wire.decode(message)["members"]
        except JxtaError:
            fed_metric("fed.reject.malformed")
            return None
        self._merge_members(roster)
        out = Message("fed_link_ok")
        out.add_json("members", self.roster())
        sealed = self.seal(out)
        # Inline hand-off: the initiator pre-registered us, so our digest
        # and delta frames pass its membership check mid-handshake.
        self.sync_with(src)
        return sealed

    def fn_members(self, message: Message, src: str) -> None:
        if not self.authorize(message, src, link=True):
            return None
        try:
            self._merge_members(wire.decode(message)["members"])
        except JxtaError:
            fed_metric("fed.reject.malformed")
        return None

    def fn_unlink(self, message: Message, src: str) -> None:
        if not self.authorize(message, src):
            return None
        self.members.pop(src, None)
        self.ring.remove(src)
        self._gauges()
        return None

    def fn_digest(self, message: Message, src: str) -> Message | None:
        if not self.authorize(message, src):
            return None
        try:
            offered = wire.decode(message)["entries"]
        except JxtaError:
            fed_metric("fed.reject.malformed")
            return None
        held: dict[str, str] = {}
        for entry in self.cache.find():
            held[entry_key(entry.parsed)] = entry_digest(entry.element)
        need = [key for key, digest in sorted(offered.items())
                if held.get(key) != digest]
        out = Message("fed_digest_resp")
        out.add_json("need", need)
        return self.seal(out)

    def fn_delta(self, message: Message, src: str) -> Message | None:
        if not self.authorize(message, src):
            return None
        try:
            elements = unpack_results(wire.decode(message)["advs"])
        except (OverlayError, JxtaError):
            fed_metric("fed.reject.malformed")
            return None
        accepted = 0
        for element in elements:
            try:
                self.cache.publish(element)
                accepted += 1
            except (OverlayError, JxtaError):
                fed_metric("fed.reject.malformed")
        fed_metric("fed.sync.entries_received", accepted)
        out = Message("fed_delta_ok")
        out.add_text("accepted", str(accepted))
        return self.seal(out)

    def fn_presence(self, message: Message, src: str) -> None:
        if not self.authorize(message, src):
            return None
        try:
            ops = wire.decode(message)["ops"]
        except JxtaError:
            fed_metric("fed.reject.malformed")
            return None
        for op in ops:
            self._apply_presence_op(op)
        return None

    def fn_query(self, message: Message, src: str) -> Message | None:
        """Scatter leg of an unkeyed query: answer from the local shard."""
        if not self.authorize(message, src):
            return None
        frame = wire.decode(message)
        adv_type = frame.get("adv_type")
        group = frame.get("group")
        elements = self.cache.elements(adv_type=adv_type, group=group)
        out = Message("fed_query_resp")
        out.add_xml("results", pack_results(elements))
        return self.seal(out)
