"""Authenticated federation: signed frames, rogue-broker rejection."""

from __future__ import annotations

import contextlib

import pytest

from repro import obs
from repro.core import SecureBroker, SecureClientPeer
from repro.core.keystore import Keystore
from repro.core.secure_connection import pack_chain
from repro.core.secure_federation import SEAL_ELEMS, signable_bytes
from repro.crypto import signing
from repro.errors import NetworkError
from repro.jxta.advertisements import FileAdvertisement
from repro.jxta.messages import Message
from tests.conftest import TEST_POLICY, cached_keypair


@contextlib.contextmanager
def fresh_registry():
    saved = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        yield registry
    finally:
        obs.set_registry(saved)


def _second_broker(world, address="broker:1", key_label="broker-b1"):
    broker = SecureBroker.create(
        world.net, address, world.admin, world.root.fork(b"fed-" + key_label.encode()),
        name=address, policy=TEST_POLICY,
        keys=cached_keypair(512, key_label))
    world.broker.link_broker(broker)
    return broker


def _erin(world, broker_address="broker:1"):
    world.admin.register_user("erin", "pw-e", {"students"})
    erin = SecureClientPeer(
        world.net, "peer:erin", world.root.fork(b"erin"),
        world.admin.credential, name="erin-app", policy=TEST_POLICY,
        keystore=Keystore(cached_keypair(512, "client-erin")))
    erin.secure_connect(broker_address)
    erin.secure_login("erin", "pw-e")
    return erin


class TestSecureLink:
    def test_link_exchanges_signed_rosters(self, secure_world):
        b1 = _second_broker(secure_world)
        fed0 = secure_world.broker.federation
        assert "broker:1" in fed0.members
        assert fed0.members["broker:1"].broker_id == str(b1.peer_id)
        assert "broker:0" in b1.federation.members

    def test_cross_broker_flow_through_redirects(self, joined_secure_world):
        world = joined_secure_world
        b1 = _second_broker(world)
        erin = _erin(world)
        erin.publish_file("students", "signed.txt", b"payload")
        files = world.alice.search_files(peer_id=str(erin.peer_id))
        assert "signed.txt" in {f.file_name for f in files}
        assert world.alice.peer_status(str(erin.peer_id))["online"]

    def test_index_stays_partitioned(self, joined_secure_world):
        world = joined_secure_world
        b1 = _second_broker(world)
        _erin(world)
        for broker in (world.broker, b1):
            for entry in broker.control.cache.find():
                assert broker.federation.owner_of(
                    str(entry.parsed.peer_id)) == broker.address


class TestRogueFrameRejection:
    def test_unsigned_index_sync_rejected_and_counted(self, joined_secure_world):
        world = joined_secure_world
        adv = FileAdvertisement(peer_id=world.bob.peer_id, file_name="evil",
                                size=1, sha256_hex="00", group="students")
        rogue = Message("index_sync")
        rogue.add_xml("adv", adv.to_element())
        with fresh_registry() as registry:
            world.alice.control.endpoint.send("broker:0", rogue)
            assert registry.count("fed.reject.unsigned") == 1
        assert not world.broker.control.cache.find(
            "FileAdvertisement", peer_id=str(world.bob.peer_id))

    def test_unsigned_fed_delta_rejected(self, joined_secure_world):
        from repro.overlay.control import pack_results

        world = joined_secure_world
        adv = FileAdvertisement(peer_id=world.bob.peer_id, file_name="evil",
                                size=1, sha256_hex="00", group="students")
        rogue = Message("fed_delta")
        rogue.add_xml("advs", pack_results([adv.to_element()]))
        with fresh_registry() as registry:
            with pytest.raises(NetworkError):  # handler answers nothing
                world.alice.control.endpoint.request("broker:0", rogue)
            assert registry.count("fed.reject.unsigned") == 1
        assert not world.broker.control.cache.find(
            "FileAdvertisement", peer_id=str(world.bob.peer_id))

    def test_client_credential_chain_rejected(self, joined_secure_world):
        """A logged-in client's valid chain (length 2) must not federate."""
        from repro.overlay.control import pack_results

        world = joined_secure_world
        client = world.alice
        adv = FileAdvertisement(peer_id=world.bob.peer_id, file_name="evil",
                                size=1, sha256_hex="00", group="students")
        forged = Message("fed_delta")
        forged.add_xml("advs", pack_results([adv.to_element()]))
        forged.add_text("fed_from", client.address)
        forged.add_text("fed_scheme", TEST_POLICY.signature_scheme)
        forged.add_xml("fed_chain", pack_chain(client.keystore.chain))
        forged.add_bytes("fed_sig", signing.sign(
            client.keystore.keys.private,
            signable_bytes(forged, client.address),
            scheme=TEST_POLICY.signature_scheme, drbg=client.control.drbg))
        with fresh_registry() as registry:
            with pytest.raises(NetworkError):
                client.control.endpoint.request("broker:0", forged)
            assert registry.count("fed.reject.bad_chain") == 1
        assert not world.broker.control.cache.find(
            "FileAdvertisement", peer_id=str(world.bob.peer_id))

    def test_replay_from_wrong_address_rejected(self, joined_secure_world):
        """A frame sealed by a real broker fails when replayed elsewhere."""
        world = joined_secure_world
        b1 = _second_broker(world)
        real = Message("fed_members")
        real.add_json("members", b1.federation.roster())
        real = b1.federation.seal(real)
        assert all(real.has(name) for name in SEAL_ELEMS)
        # Replay the legitimately sealed frame from a rogue endpoint:
        # fed_from != src.
        with fresh_registry() as registry:
            world.alice.control.endpoint.send("broker:0", real)
            assert registry.count("fed.reject.malformed") == 1

    def test_tampered_signature_rejected(self, joined_secure_world):
        world = joined_secure_world
        b1 = _second_broker(world)
        frame = Message("fed_unlink")
        frame.add_text("fed_from", b1.address)
        frame.add_text("fed_scheme", TEST_POLICY.signature_scheme)
        frame.add_xml("fed_chain", pack_chain(b1.keystore.chain))
        frame.add_bytes("fed_sig", b"\x00" * 64)
        with fresh_registry() as registry:
            b1.control.endpoint.send("broker:0", frame)
            assert registry.count("fed.reject.bad_signature") == 1
        assert "broker:1" in world.broker.federation.members  # unlink ignored
