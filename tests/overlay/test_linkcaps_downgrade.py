"""Mixed-capability federation: the link-caps exchange must degrade.

One broker enables link batching with zlib on, its federation peer
never does, so it offers no compression.  The ``link_caps_req/ok``
exchange has to settle on ``codec="none"`` (nobody may assume the other
side can inflate), and the downgrade must be invisible one layer up:
group-cast relay across the mixed link still delivers the identical
plaintexts.
"""

from __future__ import annotations

from repro import wire
from repro.core import SecureBroker, SecureClientPeer
from repro.core.keystore import Keystore
from repro.jxta.messages import Message
from repro.overlay.policy import LinkPolicy
from tests.conftest import (CAST_POLICY, CastWorld, cached_keypair, received_texts,
                            record_texts)

LINK_POLICY = LinkPolicy(compress_level=6, min_compress_bytes=64)


def _linked_broker(world, address, key_label):
    broker = SecureBroker.create(
        world.net, address, world.admin,
        world.root.fork(b"fed-" + key_label.encode()),
        name=address, policy=CAST_POLICY,
        keys=cached_keypair(512, key_label))
    world.broker.link_broker(broker)
    return broker


def _erin(world, broker_address):
    world.admin.register_user("erin", "pw-e", {"students"})
    erin = SecureClientPeer(
        world.net, "peer:erin", world.root.fork(b"erin"),
        world.admin.credential, name="erin-app", policy=CAST_POLICY,
        keystore=Keystore(cached_keypair(512, "client-erin")))
    record_texts(erin)
    erin.secure_connect(broker_address)
    erin.secure_login("erin", "pw-e")
    return erin


class TestMixedFederationDowngrade:
    def test_negotiation_settles_on_codec_none(self):
        world = CastWorld()
        legacy = _linked_broker(world, "broker:1", "broker-legacy")
        assert world.broker.enable_link_batching(LINK_POLICY) is not None
        # the legacy broker never calls enable_link_batching
        assert legacy.link_policy is None
        assert world.broker.negotiate_link("broker:1") == 0

    def test_responder_answers_none_without_scheduler(self):
        world = CastWorld()
        _linked_broker(world, "broker:1", "broker-legacy")
        assert world.broker.enable_link_batching(LINK_POLICY) is not None
        req = Message("link_caps_req")
        req.add_json("codecs", ["zlib"])
        req.add_text("level", "6")
        resp = world.broker.control.endpoint.request("broker:1", req)
        assert resp.msg_type == "link_caps_ok"
        frame = wire.decode(resp)
        assert frame["codec"] == "none"
        assert int(frame["level"]) == 0

    def test_mixed_ring_negotiates_per_link(self):
        """Capable links still compress; only the legacy link degrades."""
        world = CastWorld()
        legacy = _linked_broker(world, "broker:1", "broker-legacy")
        capable = _linked_broker(world, "broker:2", "broker-capable")
        assert world.broker.enable_link_batching(LINK_POLICY) is not None
        assert capable.enable_link_batching(LINK_POLICY) is not None
        assert world.broker.negotiate_link("broker:1") == 0
        assert world.broker.negotiate_link("broker:2") == LINK_POLICY.compress_level

    def test_group_relay_parity_across_downgraded_link(self):
        world = CastWorld()
        legacy = _linked_broker(world, "broker:1", "broker-legacy")
        world.join_all()
        erin = _erin(world, "broker:1")
        assert world.broker.enable_link_batching(LINK_POLICY) is not None
        assert world.broker.negotiate_link("broker:1") == 0
        world.alice.secure_create_group("relay")
        world.bob.secure_join_group("relay")
        erin.secure_join_group("relay")
        # cast across the downgraded link, both directions (the returned
        # count covers the home broker's local fan-out only: bob for
        # alice's cast; erin has no local co-members, her count is 0)
        assert world.alice.secure_msg_peer_group("relay", "over the wire") == 1
        assert erin.secure_msg_peer_group("relay", "and back") == 0
        assert "over the wire" in received_texts(erin)
        assert "over the wire" in received_texts(world.bob)
        assert "and back" in received_texts(world.alice)
        assert "and back" in received_texts(world.bob)
        # the downgrade never re-ran the exchange to something lossy:
        # the legacy broker processed the relays without a scheduler
        assert legacy.link_policy is None
