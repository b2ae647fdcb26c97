"""Attack parity: every adversary behaves identically on both backends.

The §2.3 attack models were refactored onto the transport contract —
taps and interceptors install through
:func:`repro.net.adversary.adversary_surface`, active endpoints are
plain endpoints.  This suite runs each attack once on the discrete-
event simulator and once over real asyncio loopback sockets and pins
the *observable* outcomes equal:

* the eavesdropper harvests the same clear-text credentials;
* DNS spoofing routes the victim to the same fake broker, which
  harvests the same password;
* mid-flight credential tampering produces the same plain-login
  rejection;
* the login replayer gets the same ``secure_login_fail`` haul and
  trips the same ``fn.secure_login.replayed`` counter;
* a malformed-frame spray lands in the same ``wire.reject.*``
  taxonomy cells.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.attacks import (
    Eavesdropper,
    FakeBroker,
    LoginReplayer,
    TamperCampaign,
    byte_substitution,
    spoof_dns,
)
from repro.core import Administrator, SecureBroker, SecureClientPeer
from repro.core.keystore import Keystore
from repro.crypto.drbg import HmacDrbg
from repro.net.tcp import TcpTransport
from repro.overlay import Broker, ClientPeer
from repro.sim import SimNetwork, VirtualClock
from repro.wire import REGISTRY
from repro.wire.fuzz import mutations
from tests.conftest import TEST_POLICY, cached_keypair


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _plain_attack_trace(net) -> dict:
    """Eavesdropping, DNS spoofing and tampering against the plain stack."""
    saved = obs.get_registry()
    obs.set_registry(obs.Registry())
    try:
        root = HmacDrbg(b"attack-parity-plain")
        admin = Administrator(root.fork(b"admin"),
                              keys=cached_keypair(512, "admin"))
        for user in ("alice", "bob", "carol"):
            admin.register_user(user, f"pw-{user}", {"students"})
        broker = Broker(net, "broker:0", admin.database, root.fork(b"br"))

        # Threat 1: passive eavesdropping harvests clear-text credentials.
        eaves = Eavesdropper().attach(net)
        alice = ClientPeer(net, "peer:alice", root.fork(b"al"))
        alice.connect("broker:0")
        alice.login("alice", "pw-alice")
        harvested = eaves.harvest_credentials()
        saw_password = eaves.saw_text("pw-alice")
        eaves.detach(net)

        # Threat 3: DNS spoofing routes bob to a fake broker.
        fake = FakeBroker(net, "broker:fake", root.fork(b"fk"))
        with TamperCampaign(net) as campaign:
            campaign.install(spoof_dns("broker:0", "broker:fake"))
            bob = ClientPeer(net, "peer:bob", root.fork(b"bo"))
            bob.connect("broker:0")
            bob.login("bob", "pw-bob")
        fake_harvest = list(fake.harvested)

        # Threat 2: mid-flight tampering; the broker sees the altered
        # password and rejects (the user cannot even tell why).
        with TamperCampaign(net) as campaign:
            campaign.install(byte_substitution(b"pw-carol", b"pw-wrong"))
            carol = ClientPeer(net, "peer:carol", root.fork(b"ca"))
            carol.connect("broker:0")
            try:
                carol.login("carol", "pw-carol")
                tamper_outcome = "accepted"
            except Exception as exc:
                tamper_outcome = type(exc).__name__
        rejected_logins = broker.metrics.count("fn.login.rejected")

        for node in (alice, bob, carol, broker):
            node.control.close()
        fake.endpoint.close()
        return {
            "harvested": harvested,
            "saw_password": saw_password,
            "fake_harvest": fake_harvest,
            "tamper_outcome": tamper_outcome,
            "rejected_logins": rejected_logins,
        }
    finally:
        obs.set_registry(saved)


def _secure_attack_trace(net) -> dict:
    """Replay and malformed-frame attacks against the secure stack."""
    saved = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        root = HmacDrbg(b"attack-parity-secure")
        admin = Administrator(root.fork(b"admin"),
                              keys=cached_keypair(512, "admin"))
        admin.register_user("alice", "pw-a", {"students"})
        broker = SecureBroker.create(
            net, "broker:0", admin, root.fork(b"br"), name="B0",
            policy=TEST_POLICY, keys=cached_keypair(512, "broker"))
        alice = SecureClientPeer(
            net, "peer:alice", root.fork(b"al"), admin.credential,
            name="alice-app", policy=TEST_POLICY,
            keystore=Keystore(cached_keypair(512, "client-alice")))

        # §4.2.2: record the sealed login off the wire, replay it verbatim.
        replayer = LoginReplayer(attacker_address="peer:mallory").attach(net)
        alice.secure_connect("broker:0")
        alice.secure_login("alice", "pw-a")
        responses = replayer.replay_all(net)
        replay_types = sorted(r.msg_type for r in responses)
        impersonations = len(LoginReplayer.successes(responses))
        replays_blocked = broker.metrics.count("fn.secure_login.replayed")

        # The fuzzer's malformed login frames die at the wire boundary.
        spray = mutations(REGISTRY["secure_login_req"])
        for _, malformed, _ in spray:
            net.send("peer:mallory", "broker:0", malformed.to_wire())
        assert _wait_for(lambda: sum(
            registry.count(name) for name in registry.metric_names()
            if name.startswith("wire.reject.secure_login_req."))
            == len(spray))
        rejects = {name: registry.count(name)
                   for name in registry.metric_names()
                   if name.startswith("wire.reject.")}

        alice.control.close()
        broker.control.close()
        return {
            "replay_types": replay_types,
            "impersonations": impersonations,
            "replays_blocked": replays_blocked,
            "rejects": rejects,
        }
    finally:
        obs.set_registry(saved)


@pytest.fixture(scope="module")
def plain_traces() -> tuple[dict, dict]:
    sim = _plain_attack_trace(SimNetwork(clock=VirtualClock()))
    with TcpTransport(request_timeout=30.0) as net:
        tcp = _plain_attack_trace(net)
    return sim, tcp


@pytest.fixture(scope="module")
def secure_traces() -> tuple[dict, dict]:
    sim = _secure_attack_trace(SimNetwork(clock=VirtualClock()))
    with TcpTransport(request_timeout=30.0) as net:
        tcp = _secure_attack_trace(net)
    return sim, tcp


class TestPlainAttackParity:
    def test_eavesdropper_harvests_identically(self, plain_traces):
        sim, tcp = plain_traces
        assert sim["harvested"] == [("alice", "pw-alice")]
        assert sim["harvested"] == tcp["harvested"]
        assert sim["saw_password"] and tcp["saw_password"]

    def test_dns_spoof_routes_to_fake_broker_on_both(self, plain_traces):
        sim, tcp = plain_traces
        assert sim["fake_harvest"] == [("bob", "pw-bob")]
        assert sim["fake_harvest"] == tcp["fake_harvest"]

    def test_tampered_login_rejected_identically(self, plain_traces):
        sim, tcp = plain_traces
        assert sim["tamper_outcome"] == tcp["tamper_outcome"]
        assert sim["rejected_logins"] == tcp["rejected_logins"] == 1

    def test_traces_identical(self, plain_traces):
        sim, tcp = plain_traces
        assert sim == tcp


class TestSecureAttackParity:
    def test_replay_blocked_identically(self, secure_traces):
        sim, tcp = secure_traces
        assert sim["impersonations"] == tcp["impersonations"] == 0
        assert sim["replays_blocked"] == tcp["replays_blocked"] == 1
        assert sim["replay_types"] == tcp["replay_types"]
        assert set(sim["replay_types"]) == {"secure_login_fail"}

    def test_wire_taxonomy_identical(self, secure_traces):
        sim, tcp = secure_traces
        assert sim["rejects"] == tcp["rejects"]
        assert any(name.startswith("wire.reject.secure_login_req.")
                   for name in sim["rejects"])

    def test_traces_identical(self, secure_traces):
        sim, tcp = secure_traces
        assert sim == tcp
