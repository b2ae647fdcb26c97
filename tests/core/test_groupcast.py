"""Broker-mediated group cast: mode parity, rotation, store-and-forward.

``policy.enable_group_cast`` switches ``secureMsgPeerGroup`` between the
paper's sender-iterated loop and the broker-mediated epoch-key path.
The switch must be invisible to the application: identical delivered
plaintexts, identical refusal taxonomy.  The cast-only machinery on top
— epoch rotation on membership change, stale-epoch retry, bounded
replay to reconnecting members — is covered here too.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import obs
from repro.core import SecureBroker, SecureClientPeer
from repro.core.keystore import Keystore
from repro.errors import PrimitiveError
from tests.conftest import CAST_POLICY, CastWorld, SecureWorld, cached_keypair

GROUP = "game"


@contextlib.contextmanager
def fresh_registry():
    saved = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        yield registry
    finally:
        obs.set_registry(saved)


def _texts(client):
    return [e["text"] for e in client.events.events_named(
        "secure_message_received")]


def _shard_epoch(broker, group=GROUP):
    return broker.groupcast._shard(group).ring.epoch


def _second_broker(world, address="broker:1"):
    broker = SecureBroker.create(
        world.net, address, world.admin, world.root.fork(b"fed-b1"),
        name=address, policy=CAST_POLICY,
        keys=cached_keypair(512, "broker-b1"))
    world.broker.link_broker(broker)
    return broker


def _erin(world, broker_address="broker:1"):
    world.admin.register_user("erin", "pw-e", {"students"})
    erin = SecureClientPeer(
        world.net, "peer:erin", world.root.fork(b"erin"),
        world.admin.credential, name="erin-app", policy=CAST_POLICY,
        keystore=Keystore(cached_keypair(512, "client-erin")))
    erin.secure_connect(broker_address)
    erin.secure_login("erin", "pw-e")
    return erin


def _run_conversation(world):
    """The mode-parity script: create, join, chat in both directions."""
    world.alice.secure_create_group(GROUP)
    world.bob.secure_join_group(GROUP)
    world.alice.secure_msg_peer_group(GROUP, "first move")
    world.bob.secure_msg_peer_group(GROUP, "counter move")
    world.alice.secure_msg_peer_group(GROUP, "third move")
    return {name: sorted(_texts(getattr(world, name)))
            for name in ("alice", "bob", "carol")}


class TestModeParity:
    def test_delivered_plaintexts_identical(self):
        legacy, cast = SecureWorld(), CastWorld()
        legacy.join_all()
        cast.join_all()
        legacy_traces = _run_conversation(legacy)
        cast_traces = _run_conversation(cast)
        assert cast_traces == legacy_traces
        assert cast_traces["alice"] == ["counter move"]
        assert cast_traces["bob"] == ["first move", "third move"]
        assert cast_traces["carol"] == []

    def test_non_member_refused_identically(self):
        for world in (SecureWorld(), CastWorld()):
            world.join_all()
            world.alice.secure_create_group(GROUP)
            with pytest.raises(PrimitiveError):
                world.carol.secure_msg_peer_group(GROUP, "psst")

    def test_cast_sender_pays_one_uplink_frame(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        world.carol.secure_join_group(GROUP)
        world.alice.secure_msg_peer_group(GROUP, "warm")  # absorb retry

        class UplinkTap:
            frames = 0

            def observe(self, frame):
                if frame.src == world.alice.address:
                    UplinkTap.frames += 1

        tap = UplinkTap()
        world.net.add_tap(tap)
        try:
            assert world.alice.secure_msg_peer_group(GROUP, "steady") == 2
        finally:
            world.net.remove_tap(tap)
        # one group_cast request regardless of member count; the fan-out
        # frames all originate at the broker
        assert UplinkTap.frames == 1


class TestEpochRotation:
    def test_membership_changes_rotate(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        created = _shard_epoch(world.broker)
        world.bob.secure_join_group(GROUP)
        joined = _shard_epoch(world.broker)
        world.bob.secure_leave_group(GROUP)
        left = _shard_epoch(world.broker)
        assert created >= 1
        assert joined == created + 1
        assert left == joined + 1

    def test_stale_sender_retries_once_and_succeeds(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.alice.secure_msg_peer_group(GROUP, "solo")
        world.bob.secure_join_group(GROUP)  # rotates; alice doesn't know
        assert world.alice.secure_msg_peer_group(GROUP, "hello bob") == 1
        assert world.alice.metrics.count("client.group_cast_stale_retry") == 1
        assert "hello bob" in _texts(world.bob)

    def test_leaver_cannot_read_later_frames(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        world.carol.secure_join_group(GROUP)
        world.alice.secure_msg_peer_group(GROUP, "all three")
        world.carol.secure_leave_group(GROUP)
        carol_ring = world.carol.group_keys.get(GROUP)
        assert carol_ring is None  # client drops its key material on leave
        world.alice.secure_msg_peer_group(GROUP, "after carol left")
        assert "after carol left" in _texts(world.bob)
        assert "after carol left" not in _texts(world.carol)
        # and the broker refuses her as a sender now
        with pytest.raises(PrimitiveError):
            world.carol.secure_msg_peer_group(GROUP, "let me back in")


class TestStoreAndForward:
    def test_reconnect_replays_missed_frames(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        world.alice.secure_msg_peer_group(GROUP, "seen live")
        assert "seen live" in _texts(world.bob)
        world.bob.logout()
        world.alice.secure_msg_peer_group(GROUP, "missed one")
        world.alice.secure_msg_peer_group(GROUP, "missed two")
        world.bob.secure_connect("broker:0")
        world.bob.secure_login("bob", "pw-b")
        replayed = world.bob.group_subscribe(GROUP)
        assert replayed == 2
        texts = _texts(world.bob)
        assert "missed one" in texts and "missed two" in texts

    def test_store_during_replay_replays_the_snapshot(self, cast_world):
        """A cast stored mid-replay (another worker, on sockets) must not
        break the replay loop with "deque mutated during iteration"."""
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        world.bob.logout()
        world.alice.secure_msg_peer_group(GROUP, "missed one")
        world.alice.secure_msg_peer_group(GROUP, "missed two")
        world.bob.secure_connect("broker:0")
        world.bob.secure_login("bob", "pw-b")
        groupcast = world.broker.groupcast
        shard = groupcast._shard(GROUP)
        endpoint = world.broker.control.endpoint
        send = endpoint.send

        def send_and_store(dst, message):
            if len(shard.backlog) == 2:
                last = shard.backlog[-1]
                groupcast._store(shard, last.epoch, last.from_peer, last.env)
            return send(dst, message)

        endpoint.send = send_and_store
        try:
            assert world.bob.group_subscribe(GROUP) == 2
        finally:
            del endpoint.send
        assert len(shard.backlog) == 3
        texts = _texts(world.bob)
        assert "missed one" in texts and "missed two" in texts

    def test_high_water_prevents_duplicate_replay(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        world.alice.secure_msg_peer_group(GROUP, "once only")
        # re-subscribing with everything already seen replays nothing
        assert world.bob.group_subscribe(GROUP) == 0
        assert _texts(world.bob).count("once only") == 1

    def test_late_joiner_gets_no_history(self, cast_world):
        world = cast_world
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        world.alice.secure_msg_peer_group(GROUP, "before carol")
        world.carol.secure_join_group(GROUP)
        # her entitlement floor is the join epoch: the stored frame is
        # from an older epoch and must not be replayed to her
        assert world.carol.group_subscribe(GROUP) == 0
        assert "before carol" not in _texts(world.carol)


class TestFederatedRelay:
    def test_cast_relays_to_remote_member(self, cast_world):
        world = cast_world
        _second_broker(world)
        erin = _erin(world)
        world.alice.secure_create_group(GROUP)
        erin.secure_join_group(GROUP)
        with fresh_registry() as registry:
            world.alice.secure_msg_peer_group(GROUP, "cross the ring")
            assert registry.count("groupcast.relayed") == 1
            assert registry.count("groupcast.relay.received") == 1
        assert "cross the ring" in _texts(erin)

    def test_remote_sender_reaches_home_members(self, cast_world):
        world = cast_world
        _second_broker(world)
        erin = _erin(world)
        world.alice.secure_create_group(GROUP)
        world.bob.secure_join_group(GROUP)
        erin.secure_join_group(GROUP)
        erin.secure_msg_peer_group(GROUP, "from the far side")
        assert "from the far side" in _texts(world.alice)
        assert "from the far side" in _texts(world.bob)
