"""Sharded broker federation: ring, routing, anti-entropy, partitions."""

from __future__ import annotations

import contextlib

import pytest

from repro import obs
from repro.errors import OverlayError
from repro.jxta.advertisements import FileAdvertisement
from repro.overlay import Broker, ClientPeer
from repro.overlay.federation import VNODES, Federation, HashRing
from repro.overlay.presence import FederationSweeper
from repro.sim.faults import FaultPlan, Partition
from repro.sim.scheduler import Scheduler


@contextlib.contextmanager
def fresh_registry():
    """An isolated metrics registry for one assertion block."""
    saved = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        yield registry
    finally:
        obs.set_registry(saved)


class TestHashRing:
    def test_deterministic_and_stable(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            ring.add("broker:0")
            ring.add("broker:1")
            ring.add("broker:2")
        keys = [f"urn:jxta:peer-{i}" for i in range(64)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_single_node_owns_everything(self):
        ring = HashRing()
        ring.add("broker:0")
        assert all(ring.owner(f"k{i}") == "broker:0" for i in range(100))

    def test_remove_moves_only_lost_arcs(self):
        ring = HashRing()
        for n in ("broker:0", "broker:1", "broker:2"):
            ring.add(n)
        keys = [f"key-{i}" for i in range(256)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("broker:2")
        for k in keys:
            if before[k] != "broker:2":
                assert ring.owner(k) == before[k]
            else:
                assert ring.owner(k) in ("broker:0", "broker:1")

    def test_empty_ring_raises(self):
        with pytest.raises(OverlayError):
            HashRing().owner("anything")

    def test_balance_within_tolerance(self):
        ring = HashRing(vnodes=VNODES)
        nodes = [f"broker:{i}" for i in range(4)]
        for n in nodes:
            ring.add(n)
        counts = {n: 0 for n in nodes}
        for i in range(4096):
            counts[ring.owner(f"urn:jxta:uuid-{i:032x}")] += 1
        expected = 4096 / 4
        for n in nodes:
            assert counts[n] / expected == pytest.approx(1.0, abs=0.5)


class TestRingMemo:
    """The memoized owner lookup must be invisible except for speed."""

    KEYS = [f"urn:jxta:peer-{i}" for i in range(128)]

    def _ring(self, n=3):
        ring = HashRing()
        for i in range(n):
            ring.add(f"broker:{i}")
        return ring

    def test_memo_matches_reference(self):
        ring = self._ring()
        assert [ring.owner(k) for k in self.KEYS] \
            == [ring.owner_uncached(k) for k in self.KEYS]
        # and again from a warm cache
        assert [ring.owner(k) for k in self.KEYS] \
            == [ring.owner_uncached(k) for k in self.KEYS]

    def test_add_invalidates_memo(self):
        ring = self._ring()
        for k in self.KEYS:
            ring.owner(k)  # warm
        ring.add("broker:99")
        assert [ring.owner(k) for k in self.KEYS] \
            == [ring.owner_uncached(k) for k in self.KEYS]

    def test_remove_invalidates_memo(self):
        ring = self._ring()
        stale = {k: ring.owner(k) for k in self.KEYS}  # warm
        ring.remove("broker:2")
        fresh = {k: ring.owner(k) for k in self.KEYS}
        assert fresh == {k: ring.owner_uncached(k) for k in self.KEYS}
        assert any(stale[k] == "broker:2" != fresh[k] for k in self.KEYS)

    def test_flag_off_bypasses_cache(self):
        """The reference lookup neither reads nor fills the memo."""
        ring = self._ring()
        for k in self.KEYS:
            ring.owner_uncached(k)
        assert not ring._owner_cache

    def test_cache_capped(self):
        ring = self._ring()
        for i in range(ring.OWNER_CACHE_MAX + 10):
            ring.owner(f"overflow-{i}")
        assert len(ring._owner_cache) <= ring.OWNER_CACHE_MAX

    def test_membership_churn_via_fed_messages(self, plain_world):
        """fed_members gossip and fed_unlink must flush the memo.

        Broker link/unlink mutates each member's ring through the
        ``fed_members``/``fed_unlink`` wire frames — after every churn
        step the memoized owner map must equal the reference map."""
        world, (b1,) = _federated_world(plain_world)
        ring = world.broker.federation.ring

        def consistent():
            return all(ring.owner(k) == ring.owner_uncached(k)
                       for k in self.KEYS)

        assert consistent()
        b2 = Broker(world.net, "broker:2", world.db,
                    world.root.fork(b"memo-br2"), name="B2")
        b1.link_broker(b2)  # reaches broker:0 via fed_members gossip
        assert "broker:2" in world.broker.federation.members
        assert consistent()
        world.broker.unlink_broker(b1)  # fed_unlink both ways
        assert consistent()
        world.broker.link_broker(b1)
        assert consistent()


def _federated_world(plain_world, n_extra=1):
    """The plain-world broker plus ``n_extra`` linked brokers."""
    world = plain_world
    extras = [Broker(world.net, f"broker:{i + 1}", world.db,
                     world.root.fork(b"fedbr%d" % i), name=f"B{i + 1}")
              for i in range(n_extra)]
    for extra in extras:
        world.broker.link_broker(extra)
    return world, extras


class TestMembership:
    def test_link_by_address_and_object(self, plain_world):
        world, (b1,) = _federated_world(plain_world)
        b2 = Broker(world.net, "broker:2", world.db,
                    world.root.fork(b"br3"), name="B2")
        b1.link_broker("broker:2")  # by address, message-only
        assert "broker:2" in b1.federation.members
        assert b1.address in b2.federation.members

    def test_membership_gossips_transitively(self, plain_world):
        world, (b1,) = _federated_world(plain_world)
        b2 = Broker(world.net, "broker:2", world.db,
                    world.root.fork(b"br3"), name="B2")
        b1.link_broker(b2)
        # broker:0 never linked broker:2 directly, yet the gossip told it.
        assert "broker:2" in world.broker.federation.members
        assert "broker:0" in b2.federation.members

    def test_no_object_references_between_brokers(self, plain_world):
        world, (b1,) = _federated_world(plain_world)
        for record in world.broker.federation.members.values():
            assert isinstance(record.address, str)
        assert not hasattr(world.broker, "_peer_brokers")

    def test_cannot_link_itself(self, plain_world):
        with pytest.raises(OverlayError):
            plain_world.broker.link_broker(plain_world.broker)
        with pytest.raises(OverlayError):
            plain_world.broker.link_broker(plain_world.broker.address)

    def test_unlink_then_relink_does_not_duplicate_index(self, joined_plain_world):
        world, (b1,) = _federated_world(joined_plain_world)
        total = len(world.broker.control.cache) + len(b1.control.cache)
        world.broker.unlink_broker(b1)
        assert b1.address not in world.broker.federation.members
        assert world.broker.address not in b1.federation.members
        world.broker.link_broker(b1)
        assert len(world.broker.control.cache) + len(b1.control.cache) == total

    def test_index_is_partitioned_not_replicated(self, joined_plain_world):
        world, (b1,) = _federated_world(joined_plain_world)
        # Every entry lives on exactly one broker: its shard owner.
        for broker in (world.broker, b1):
            for entry in broker.control.cache.find():
                assert broker.federation.owner_of(
                    str(entry.parsed.peer_id)) == broker.address


class TestShardAwareClients:
    def test_single_broker_sees_no_redirects(self, joined_plain_world):
        world = joined_plain_world
        world.alice.search_advertisements(
            adv_type="PipeAdvertisement", peer_id=str(world.bob.peer_id))
        assert not world.alice._shard_owners

    def test_cross_broker_publish_and_lookup(self, joined_plain_world):
        world, (b1,) = _federated_world(joined_plain_world)
        world.db.register_user("dave", "pw-d", {"students"})
        dave = ClientPeer(world.net, "peer:dave", world.root.fork(b"dv"))
        dave.connect("broker:1")
        dave.login("dave", "pw-d")
        dave.publish_file("students", "notes.txt", b"shared")
        files = world.alice.search_files(peer_id=str(dave.peer_id))
        assert [f.file_name for f in files] == ["notes.txt"]
        status = world.alice.peer_status(str(dave.peer_id))
        assert status["online"] and status["username"] == "dave"

    def test_redirects_are_at_most_one_hop(self, joined_plain_world):
        world, extras = _federated_world(joined_plain_world, n_extra=3)
        owner_cache_before = dict(world.alice._shard_owners)
        assert owner_cache_before == {}
        world.alice.publish_file("students", "a.txt", b"a")
        # After one keyed primitive the owner (if remote) is cached, so a
        # repeat lookup goes straight there: at most one redirect total.
        with fresh_registry() as registry:
            world.alice.search_advertisements(
                adv_type="FileAdvertisement", peer_id=str(world.alice.peer_id))
            redirects = registry.count("fed.redirects")
        assert redirects <= 1

    def test_unkeyed_query_scatters_cluster_wide(self, joined_plain_world):
        world, (b1,) = _federated_world(joined_plain_world)
        world.db.register_user("dave", "pw-d", {"students"})
        dave = ClientPeer(world.net, "peer:dave", world.root.fork(b"dv"))
        dave.connect("broker:1")
        dave.login("dave", "pw-d")
        dave.publish_file("students", "remote.txt", b"r")
        world.alice.publish_file("students", "local.txt", b"l")
        names = {f.file_name for f in world.alice.search_files(group="students")}
        assert {"remote.txt", "local.txt"} <= names


class TestIndexSyncHardening:
    def test_foreign_index_sync_dropped_and_counted(self, joined_plain_world):
        from repro.jxta.messages import Message

        world = joined_plain_world
        adv = FileAdvertisement(peer_id=world.bob.peer_id, file_name="evil",
                                size=1, sha256_hex="00", group="students")
        rogue = Message("index_sync")
        rogue.add_xml("adv", adv.to_element())
        before = len(world.broker.control.cache)
        with fresh_registry() as registry:
            world.alice.control.endpoint.send("broker:0", rogue)
            rejected = registry.count("fed.reject.foreign_index_sync")
        assert rejected == 1
        assert len(world.broker.control.cache) == before
        assert not world.broker.control.cache.find(
            "FileAdvertisement", peer_id=str(world.bob.peer_id))

    def test_member_index_sync_still_accepted(self, joined_plain_world):
        from repro.jxta.messages import Message

        world, (b1,) = _federated_world(joined_plain_world)
        adv = FileAdvertisement(peer_id=b1.peer_id, file_name="legit",
                                size=1, sha256_hex="00", group="students")
        legit = Message("index_sync")
        legit.add_xml("adv", adv.to_element())
        b1.control.endpoint.send("broker:0", legit)
        assert world.broker.control.cache.find(
            "FileAdvertisement", peer_id=str(b1.peer_id))


class TestPartitionConvergence:
    def test_publish_during_partition_visible_after_heal(self, joined_plain_world):
        world, (b1,) = _federated_world(joined_plain_world)
        clock = world.net.clock
        scheduler = Scheduler(clock)
        FederationSweeper(world.broker, scheduler, interval=30.0)
        FederationSweeper(b1, scheduler, interval=30.0)
        FaultPlan(Partition(
            ["broker:0", "peer:alice", "peer:bob", "peer:carol"],
            ["broker:1"],
            start=10.0, heal_at=100.0)).install(world.net)
        clock.advance(20.0)  # inside the partition window
        # alice's publish can no longer reach a shard owner on broker:1;
        # the degraded path accepts it on her home broker.
        world.alice.publish_file("students", "wartime.txt", b"w")
        in_b0 = world.broker.control.cache.find(
            "FileAdvertisement", peer_id=str(world.alice.peer_id))
        in_b1 = b1.control.cache.find(
            "FileAdvertisement", peer_id=str(world.alice.peer_id))
        assert in_b0 or in_b1  # held *somewhere* despite the partition
        # Heal, then let the sweepers run an anti-entropy round.
        scheduler.run_until(200.0)
        owner = world.broker.federation.owner_of(str(world.alice.peer_id))
        owning_broker = world.broker if owner == "broker:0" else b1
        held = owning_broker.control.cache.find(
            "FileAdvertisement", peer_id=str(world.alice.peer_id))
        assert any(e.parsed.file_name == "wartime.txt" for e in held)
        # And cluster-wide visibility through a client query:
        files = world.carol.search_files(peer_id=str(world.alice.peer_id))
        assert "wartime.txt" in {f.file_name for f in files}


class TestAddressIndex:
    def test_session_lookup_uses_index(self, joined_plain_world):
        world = joined_plain_world
        broker = world.broker
        assert broker._addr_index["peer:alice"] == str(world.alice.peer_id)
        session = broker._session_for_address("peer:alice")
        assert session is not None and session.username == "alice"

    def test_index_cleared_on_logout_and_purge(self, joined_plain_world):
        world = joined_plain_world
        broker = world.broker
        world.alice.logout()
        assert "peer:alice" not in broker._addr_index
        broker.clock.advance(1000.0)
        broker.purge_stale(90.0)
        assert broker._addr_index == {}
        assert broker._session_for_address("peer:bob") is None

    def test_index_cleared_on_restart(self, joined_plain_world):
        broker = joined_plain_world.broker
        broker.restart()
        assert broker._addr_index == {}
        assert broker.federation.directory == {}


class TestPresenceDirectory:
    def test_directory_tracks_login_logout(self, plain_world):
        world = plain_world
        world.alice.connect("broker:0")
        world.alice.login("alice", "pw-a")
        pid = str(world.alice.peer_id)
        assert pid in world.broker.federation.directory
        world.alice.logout()
        assert pid not in world.broker.federation.directory

    def test_remote_session_status_served_by_owner(self, joined_plain_world):
        world, (b1,) = _federated_world(joined_plain_world)
        world.db.register_user("dave", "pw-d", {"students"})
        dave = ClientPeer(world.net, "peer:dave", world.root.fork(b"dv"))
        dave.connect("broker:1")
        dave.login("dave", "pw-d")
        pid = str(dave.peer_id)
        owner = world.broker.federation.owner_of(pid)
        owning = world.broker if owner == "broker:0" else b1
        assert pid in owning.federation.directory
        dave.logout()
        assert pid not in owning.federation.directory
