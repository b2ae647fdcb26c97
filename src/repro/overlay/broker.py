"""The Broker Module.

Brokers (section 2.1) control access to the network, authenticate end
users against the central database, maintain the global resource index,
propagate peer information across group members (beyond broadcast/NAT
boundaries), and act as well-known beacons for joining peers.

Every public ``fn_*`` method is a *function* in JXTA-Overlay's
terminology: it runs as the result of a message sent by a client-side
primitive.  The plain protocol here is deliberately faithful to the
paper's threat analysis — the login password crosses the wire in clear
text, nothing is signed — so the security extension in
:mod:`repro.core` has the real vulnerabilities to fix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs, wire
from repro.crypto.drbg import HmacDrbg
from repro.errors import GroupError, JxtaError, OverlayError
from repro.jxta.advertisements import Advertisement, GroupAdvertisement, PeerAdvertisement
from repro.jxta.ids import JxtaID, parse_id, random_group_id, random_peer_id
from repro.jxta.messages import Message
from repro.jxta.peergroup import GroupTable
from repro.overlay.control import ControlModule, pack_results
from repro.overlay.database import UserDatabase
from repro.overlay.federation import Federation
from repro.overlay.linkcaps import LinkCapsMixin
from repro.net.base import Transport
from repro.xmllib import Element


@dataclass
class ConnectedPeer:
    """Broker-side session state for one authenticated client."""

    peer_id: str
    username: str
    address: str
    last_seen: float


class Broker(LinkCapsMixin):
    """A JXTA-Overlay broker."""

    def __init__(self, network: Transport, address: str,
                 database: UserDatabase, drbg: HmacDrbg, name: str = "") -> None:
        self.control = ControlModule(network, address, drbg)
        self.database = database
        self.name = name or address
        self.peer_id = random_peer_id(drbg)
        self.groups = GroupTable()
        self.connected: dict[str, ConnectedPeer] = {}  # peer_id -> session
        self._addr_index: dict[str, str] = {}  # address -> peer_id
        self.federation = Federation(self)
        self._install_functions()

    # -- plumbing ------------------------------------------------------------

    @property
    def address(self) -> str:
        return self.control.address

    @property
    def metrics(self):
        return self.control.metrics

    @property
    def clock(self):
        return self.control.clock

    def _install(self, functions: dict) -> None:
        """Declare broker functions with call/latency observability."""
        self.control.endpoint.configure(wire=True, handlers={
            msg_type: obs.timed_handler(f"broker.fn.{msg_type}", handler)
            for msg_type, handler in functions.items()})

    def _install_functions(self) -> None:
        self._install({
            "connect_req": self.fn_connect,
            "login_req": self.fn_login,
            "logout_req": self.fn_logout,
            "publish_adv": self.fn_publish_adv,
            "query_req": self.fn_query,
            "create_group_req": self.fn_create_group,
            "join_group_req": self.fn_join_group,
            "leave_group_req": self.fn_leave_group,
            "list_groups_req": self.fn_list_groups,
            "group_members_req": self.fn_group_members,
            "peer_status_req": self.fn_peer_status,
            "presence_beat": self.fn_presence,
            "index_sync": self.fn_index_sync,
            "link_caps_req": self.fn_link_caps,
            # Federation frames delegate through ``self.federation`` at
            # call time so the secure stack can swap the object after
            # construction.
            "fed_link_req": self.fn_fed_link_req,
            "fed_members": self.fn_fed_members,
            "fed_unlink": self.fn_fed_unlink,
            "fed_digest": self.fn_fed_digest,
            "fed_delta": self.fn_fed_delta,
            "fed_presence": self.fn_fed_presence,
            "fed_query": self.fn_fed_query,
        })

    def link_broker(self, other: "Broker | str") -> None:
        """Federate with another broker, by object or by address (§2.1).

        All inter-broker traffic is carried as message frames over the
        simulated network; linking swaps member rosters and runs one
        digest-based anti-entropy round that ships only the entries whose
        shard ownership moved — never a full index copy.
        """
        self.federation.link(other)

    def unlink_broker(self, other: "Broker | str") -> None:
        """Dissolve this broker's federation link with ``other``."""
        self.federation.unlink(other)

    # -- helpers ---------------------------------------------------------------

    def _ok(self, msg_type: str) -> Message:
        return Message(msg_type)

    def _fail(self, msg_type: str, reason: str) -> Message:
        out = Message(msg_type)
        out.add_text("reason", reason)
        return out

    def _session_for_address(self, address: str) -> ConnectedPeer | None:
        peer_id = self._addr_index.get(address)
        if peer_id is None:
            return None
        session = self.connected.get(peer_id)
        if session is None or session.address != address:
            return None
        return session

    def _require_session(self, src: str) -> ConnectedPeer:
        session = self._session_for_address(src)
        if session is None:
            raise OverlayError(f"no authenticated session for {src!r}")
        return session

    def _push_to_group_members(self, group_name: str, message: Message,
                               exclude_peer: str | None = None) -> int:
        """Propagate data to every connected member of a group."""
        group = self.groups.get_or_none(group_name)
        if group is None:
            return 0
        pushed = 0
        for member_id in sorted(group.members):
            if member_id == exclude_peer:
                continue
            session = self.connected.get(member_id)
            if session is None:
                continue
            if self.control.endpoint.send(session.address, message):
                pushed += 1
        return pushed

    def _group_membership_changed(self, group_name: str,
                                  joined: str | None = None,
                                  left: str | None = None,
                                  churn: bool = False) -> None:
        """Hook: a member joined/left a local group shard.

        ``churn`` marks a dropped session (the member's database
        membership persists) as opposed to an explicit leave.  The plain
        broker has no group-cast state; the secure broker overrides this
        to rotate the group's epoch key.
        """

    # -- federation frame delegates ------------------------------------------

    def fn_fed_link_req(self, message: Message, src: str) -> Message | None:
        return self.federation.fn_link_req(message, src)

    def fn_fed_members(self, message: Message, src: str) -> None:
        return self.federation.fn_members(message, src)

    def fn_fed_unlink(self, message: Message, src: str) -> None:
        return self.federation.fn_unlink(message, src)

    def fn_fed_digest(self, message: Message, src: str) -> Message | None:
        return self.federation.fn_digest(message, src)

    def fn_fed_delta(self, message: Message, src: str) -> Message | None:
        return self.federation.fn_delta(message, src)

    def fn_fed_presence(self, message: Message, src: str) -> None:
        return self.federation.fn_presence(message, src)

    def fn_fed_query(self, message: Message, src: str) -> Message | None:
        return self.federation.fn_query(message, src)

    # -- functions: discovery set ------------------------------------------------

    def fn_connect(self, message: Message, src: str) -> Message:
        """connect: a client located us and asks to open a connection."""
        self.metrics.incr("fn.connect")
        out = self._ok("connect_ok")
        out.add_text("broker_id", str(self.peer_id))
        out.add_text("broker_name", self.name)
        return out

    def fn_login(self, message: Message, src: str) -> Message:
        """login: check username/password against the central database.

        The plain protocol: credentials arrive IN CLEAR TEXT (the paper's
        headline vulnerability).  On success the peer is registered into
        its groups and its peer advertisement is indexed and propagated.
        """
        self.metrics.incr("fn.login")
        frame = wire.decode(message)
        username = frame["username"]
        password = frame["password"]
        if not self.database.check_credentials(username, password):
            self.metrics.incr("fn.login.rejected")
            return self._fail("login_fail", "bad username or password")
        peer_adv_elem = frame["peer_adv"]
        try:
            parsed = Advertisement.from_element(peer_adv_elem)
        except (OverlayError, JxtaError) as exc:
            return self._fail("login_fail", f"bad peer advertisement: {exc}")
        if not isinstance(parsed, PeerAdvertisement):
            return self._fail("login_fail", "expected a PeerAdvertisement")
        peer_id = str(parsed.peer_id)
        groups = self.register_session(peer_id, username, src)
        self.federation.route_publish(peer_adv_elem)
        out = self._ok("login_ok")
        out.add_json("groups", groups)
        out.add_text("peer_id", peer_id)
        return out

    def register_session(self, peer_id: str, username: str, address: str) -> list[str]:
        """Post-authentication bookkeeping shared by plain and secure login:
        session record, group membership, and peer_joined propagation."""
        groups = sorted(self.database.groups_of(username))
        self.connected[peer_id] = ConnectedPeer(
            peer_id=peer_id, username=username, address=address,
            last_seen=self.clock.now)
        self._addr_index[address] = peer_id
        self.database.mark_active(username, self.address)
        self.federation.presence_up(peer_id, username, address, self.clock.now)
        for group_name in groups:
            self._ensure_group(group_name).add_member(peer_id)
            self._group_membership_changed(group_name, joined=peer_id)
            joined = Message("peer_joined")
            joined.add_text("group", group_name)
            joined.add_text("peer_id", peer_id)
            joined.add_text("username", username)
            self._push_to_group_members(group_name, joined, exclude_peer=peer_id)
        return groups

    def bulk_admit(self, peer_id: str, username: str, address: str) -> list[str]:
        """Install an authenticated session without the join broadcast.

        The population-scale admission path used by the scenario
        engine's actor pool: it produces the same session, address-index
        and group-roster state as :meth:`register_session`, but models a
        peer whose join has already converged — no ``peer_joined``
        fan-out, no presence gossip, no group-cast epoch rotation.  With
        a hundred thousand scripted actors those per-member broadcasts
        are quadratic; scenario *wire* joins still exercise the full
        ``fn_login`` path for the sampled fraction of the population.
        """
        groups = sorted(self.database.groups_of(username))
        self.connected[peer_id] = ConnectedPeer(
            peer_id=peer_id, username=username, address=address,
            last_seen=self.clock.now)
        self._addr_index[address] = peer_id
        self.database.mark_active(username, self.address)
        for group_name in groups:
            self._ensure_group(group_name).add_member(peer_id)
        self.metrics.incr("fn.bulk_admit")
        return groups

    def bulk_evict(self, address: str) -> bool:
        """Drop a session installed by :meth:`bulk_admit` (or any session)
        without the leave broadcast — the converse of bulk admission,
        modelling churn whose departure gossip already settled."""
        session = self._session_for_address(address)
        if session is None:
            return False
        self.groups.drop_member_everywhere(session.peer_id)
        self.database.mark_inactive(session.username)
        self.connected.pop(session.peer_id, None)
        if self._addr_index.get(session.address) == session.peer_id:
            del self._addr_index[session.address]
        self.metrics.incr("fn.bulk_evict")
        return True

    def fn_logout(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.logout")
        session = self._session_for_address(src)
        if session is None:
            return self._fail("logout_fail", "not logged in")
        self._disconnect(session)
        return self._ok("logout_ok")

    def restart(self) -> None:
        """Simulate a crash-restart: all in-RAM session state is lost.

        Every connected peer's session evaporates (group membership and
        presence included) without any ``peer_left`` notification — the
        process died, nobody was told.  Durable state (the user database,
        the advertisement cache, registered groups) survives, matching a
        broker whose database and index live on disk.  Clients discover
        the loss when their next request fails with ``not logged in`` and
        are expected to re-login (see ``docs/ROBUSTNESS.md``).
        """
        for session in list(self.connected.values()):
            self.groups.drop_member_everywhere(session.peer_id)
            self.database.mark_inactive(session.username)
        self.connected.clear()
        self._addr_index.clear()
        self.federation.directory.clear()
        self.metrics.incr("fn.restarts")

    def _disconnect(self, session: ConnectedPeer) -> None:
        for group in self.groups.groups_of(session.peer_id):
            left = Message("peer_left")
            left.add_text("group", group.name)
            left.add_text("peer_id", session.peer_id)
            self._push_to_group_members(group.name, left, exclude_peer=session.peer_id)
            self._group_membership_changed(group.name, left=session.peer_id,
                                           churn=True)
        self.groups.drop_member_everywhere(session.peer_id)
        self.control.cache.remove_peer(session.peer_id)
        self.database.mark_inactive(session.username)
        self.connected.pop(session.peer_id, None)
        if self._addr_index.get(session.address) == session.peer_id:
            del self._addr_index[session.address]
        self.federation.presence_down(session.peer_id)

    def fn_peer_status(self, message: Message, src: str) -> Message:
        """Discovery-set: is a given peer online, and since when?

        A local session answers authoritatively; otherwise the question
        belongs to the peer's shard owner — non-owners redirect, owners
        answer from the sharded presence directory.
        """
        self.metrics.incr("fn.peer_status")
        frame = wire.decode(message)
        peer_id = frame["peer_id"]
        session = self.connected.get(peer_id)
        out = self._ok("peer_status_resp")
        out.add_text("peer_id", peer_id)
        if session is not None:
            out.add_text("online", "true")
            out.add_text("username", session.username)
            out.add_text("last_seen", repr(session.last_seen))
            return out
        owner = self.federation.owner_of(peer_id)
        if owner != self.address and not frame.has("fed_no_redirect"):
            return self.federation.redirect(owner)
        entry = self.federation.directory.get(peer_id)
        out.add_text("online", "true" if entry else "false")
        if entry:
            out.add_text("username", entry.username)
            out.add_text("last_seen", repr(entry.last_seen))
        return out

    def fn_presence(self, message: Message, src: str) -> Message | None:
        """Heartbeat datagram: refresh last_seen and cache the presence adv."""
        self.metrics.incr("fn.presence")
        session = self._session_for_address(src)
        if session is None:
            return None
        session.last_seen = self.clock.now
        frame = wire.decode(message)
        if frame.has("adv"):
            try:
                self.control.cache.publish(frame["adv"])
            except (OverlayError, JxtaError):
                self.metrics.incr("fn.presence.bad_adv")
        return None

    def purge_stale(self, max_age: float) -> list[str]:
        """Drop sessions silent for longer than ``max_age`` (beacon duty)."""
        now = self.clock.now
        stale = [s for s in self.connected.values() if now - s.last_seen > max_age]
        for session in stale:
            self._disconnect(session)
        self.metrics.incr("fn.purged", len(stale))
        return [s.peer_id for s in stale]

    # -- functions: advertisement index -------------------------------------------

    def fn_publish_adv(self, message: Message, src: str) -> Message:
        """Index an advertisement at its shard owner and push to its group.

        Honest brokers tie publication to the publishing peer's identity:
        a local session, or — for a client that followed a redirect here —
        the sharded presence directory entry matching the source address.
        Forgery of OTHER peers' advs happens via direct push between
        peers, which has no such check.
        """
        self.metrics.incr("fn.publish_adv")
        frame = wire.decode(message)
        element = frame["adv"]
        try:
            parsed = Advertisement.from_element(element)
        except (OverlayError, JxtaError) as exc:
            return self._fail("publish_fail", str(exc))
        adv_peer = str(parsed.peer_id)
        session = self._session_for_address(src)
        if session is not None:
            authed_peer = session.peer_id
        else:
            entry = self.federation.directory.get(adv_peer)
            if entry is None or entry.address != src:
                return self._fail("publish_fail", "not logged in")
            authed_peer = entry.peer_id
        if adv_peer != authed_peer:
            return self._fail("publish_fail", "advertisement peer id mismatch")
        owner = self.federation.owner_of(adv_peer)
        if owner != self.address:
            if not frame.has("fed_no_redirect"):
                return self.federation.redirect(owner)
            # Owner unreachable from the client: accept locally; the next
            # anti-entropy sweep hands the entry off to its shard owner.
            self.federation.note_degraded_publish()
        try:
            self.control.cache.publish(element)
        except (OverlayError, JxtaError) as exc:
            return self._fail("publish_fail", str(exc))
        group_name = getattr(parsed, "group", None)
        if group_name:
            push = Message("adv_push")
            push.add_xml("adv", element)
            self._push_to_group_members(group_name, push, exclude_peer=authed_peer)
        return self._ok("publish_ok")

    def fn_index_sync(self, message: Message, src: str) -> None:
        """Receive a legacy index update — linked brokers only.

        Frames from addresses that are not federation members are dropped
        and counted; arbitrary endpoints must not write the index.
        """
        self.metrics.incr("fn.index_sync")
        if not self.federation.authorize(message, src, sync=True):
            self.metrics.incr("fn.index_sync.dropped")
            return None
        try:
            self.control.cache.publish(wire.decode(message)["adv"])
        except (OverlayError, JxtaError):
            self.metrics.incr("fn.index_sync.bad")
        return None

    def fn_query(self, message: Message, src: str) -> Message:
        """Look up advertisements in the sharded global index.

        Keyed lookups (by peer id) route to the shard owner via a
        redirect; unkeyed type/group queries scatter-gather across the
        federation and merge the shards' answers.
        """
        self.metrics.incr("fn.query")
        frame = wire.decode(message)
        adv_type = frame.get("adv_type")
        peer_id = frame.get("peer_id")
        group = frame.get("group")
        if peer_id is not None:
            owner = self.federation.owner_of(peer_id)
            if owner != self.address and not frame.has("fed_no_redirect"):
                return self.federation.redirect(owner)
            elements = self.control.cache.elements(
                adv_type=adv_type, peer_id=peer_id, group=group)
        else:
            elements = self.control.cache.elements(adv_type=adv_type, group=group)
            if self.federation.members:
                elements = self.federation.scatter_query(elements, adv_type, group)
        out = self._ok("query_resp")
        out.add_xml("results", pack_results(elements))
        return out

    # -- functions: group set ---------------------------------------------------

    def _ensure_group(self, name: str):
        group = self.groups.get_or_none(name)
        if group is None:
            group = self.groups.create(random_group_id(self.control.drbg), name)
        return group

    def fn_create_group(self, message: Message, src: str) -> Message:
        """Create and publish a new peer group."""
        self.metrics.incr("fn.create_group")
        session = self._session_for_address(src)
        if session is None:
            return self._fail("create_group_fail", "not logged in")
        frame = wire.decode(message)
        name = frame["name"]
        description = frame.get("description", "")
        if not name:
            return self._fail("create_group_fail", "group name must be non-empty")
        if name in self.groups:
            return self._fail("create_group_fail", f"group {name!r} already exists")
        group = self.groups.create(random_group_id(self.control.drbg), name, description)
        self.database.register_group(name)
        self.database.assign_group(session.username, name)
        group.add_member(session.peer_id)
        self._group_membership_changed(name, joined=session.peer_id)
        adv = GroupAdvertisement(
            peer_id=self.peer_id, group_id=group.group_id,
            name=name, description=description)
        element = adv.to_element()
        self.federation.route_publish(element)
        out = self._ok("create_group_ok")
        out.add_xml("group_adv", element)
        return out

    def fn_join_group(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.join_group")
        session = self._session_for_address(src)
        if session is None:
            return self._fail("join_group_fail", "not logged in")
        name = wire.decode(message)["name"]
        group = self.groups.get_or_none(name)
        if group is None:
            return self._fail("join_group_fail", f"unknown group {name!r}")
        group.add_member(session.peer_id)
        self.database.assign_group(session.username, name)
        self._group_membership_changed(name, joined=session.peer_id)
        joined = Message("peer_joined")
        joined.add_text("group", name)
        joined.add_text("peer_id", session.peer_id)
        joined.add_text("username", session.username)
        self._push_to_group_members(name, joined, exclude_peer=session.peer_id)
        out = self._ok("join_group_ok")
        out.add_json("members", sorted(group.members))
        return out

    def fn_leave_group(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.leave_group")
        session = self._session_for_address(src)
        if session is None:
            return self._fail("leave_group_fail", "not logged in")
        name = wire.decode(message)["name"]
        try:
            group = self.groups.get(name)
        except GroupError:
            return self._fail("leave_group_fail", f"unknown group {name!r}")
        group.remove_member(session.peer_id)
        self.database.revoke_group(session.username, name)
        self._group_membership_changed(name, left=session.peer_id)
        left = Message("peer_left")
        left.add_text("group", name)
        left.add_text("peer_id", session.peer_id)
        self._push_to_group_members(name, left, exclude_peer=session.peer_id)
        return self._ok("leave_group_ok")

    def fn_list_groups(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.list_groups")
        out = self._ok("list_groups_resp")
        out.add_json("groups", self.groups.names())
        return out

    def fn_group_members(self, message: Message, src: str) -> Message:
        self.metrics.incr("fn.group_members")
        name = wire.decode(message)["name"]
        group = self.groups.get_or_none(name)
        if group is None:
            return self._fail("group_members_fail", f"unknown group {name!r}")
        out = self._ok("group_members_resp")
        out.add_json("members", sorted(group.members))
        return out
