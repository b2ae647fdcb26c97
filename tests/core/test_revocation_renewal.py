"""Credential revocation lists and renewal (the §6 further-work set)."""

import pytest

from repro.core.credentials import issue_credential, self_signed_credential
from repro.core.revocation import (
    RevocationChecker,
    RevocationList,
    RevocationRegistry,
    RevokedCredentialError,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import CredentialError, SecurityError
from repro.jxta.ids import cbid_from_key
from repro.xmllib import parse, serialize
from tests.conftest import cached_keypair

ADMIN = cached_keypair(512, "admin")
BROKER = cached_keypair(512, "broker")
ALICE = cached_keypair(512, "client-alice")


@pytest.fixture()
def registry():
    return RevocationRegistry(BROKER.private, cbid_from_key(BROKER.public),
                              HmacDrbg(b"rl"))


@pytest.fixture()
def alice_chain():
    broker_cred = issue_credential(ADMIN.private, cbid_from_key(ADMIN.public),
                                   "admin", BROKER.public, "B0", 0.0, 1e8)
    alice_cred = issue_credential(BROKER.private, cbid_from_key(BROKER.public),
                                  "B0", ALICE.public, "alice", 0.0, 1e7)
    return [alice_cred, broker_cred]


class TestRevocationList:
    def test_build_and_verify(self, registry):
        registry.revoke(str(cbid_from_key(ALICE.public)))
        rl = registry.current_list(now=5.0)
        rl.verify(BROKER.public)
        assert rl.is_revoked(cbid_from_key(ALICE.public))
        assert rl.serial == 1

    def test_serials_increment(self, registry):
        assert registry.current_list(1.0).serial == 1
        assert registry.current_list(2.0).serial == 2

    def test_wire_roundtrip(self, registry):
        registry.revoke("urn:jxta:cbid-" + "ab" * 16)
        rl = registry.current_list(now=1.0)
        restored = RevocationList.from_element(parse(serialize(rl.element)))
        restored.verify(BROKER.public)
        assert restored.revoked == rl.revoked
        assert restored.serial == rl.serial

    def test_tampered_list_rejected(self, registry):
        registry.revoke("urn:jxta:cbid-" + "ab" * 16)
        rl = registry.current_list(now=1.0)
        element = rl.element.deep_copy()
        element.find("Revoked").children = []  # un-revoke by tampering
        restored = RevocationList.from_element(element)
        with pytest.raises(CredentialError):
            restored.verify(BROKER.public)

    def test_wrong_issuer_key_rejected(self, registry):
        rl = registry.current_list(now=1.0)
        with pytest.raises(CredentialError):
            rl.verify(ADMIN.public)

    def test_reinstate(self, registry):
        subject = str(cbid_from_key(ALICE.public))
        registry.revoke(subject)
        assert registry.is_revoked(subject)
        registry.reinstate(subject)
        assert not registry.is_revoked(subject)
        assert not registry.current_list(1.0).is_revoked(subject)


class TestRevocationChecker:
    def test_update_and_check(self, registry, alice_chain):
        checker = RevocationChecker()
        checker.check_chain(alice_chain)  # no lists -> nothing to flag
        registry.revoke(alice_chain[0])
        assert checker.update(registry.current_list(1.0), BROKER.public)
        with pytest.raises(RevokedCredentialError):
            checker.check_chain(alice_chain)

    def test_stale_serial_ignored(self, registry):
        checker = RevocationChecker()
        first = registry.current_list(1.0)
        second = registry.current_list(2.0)
        assert checker.update(second, BROKER.public)
        assert not checker.update(first, BROKER.public)  # stale

    def test_bad_signature_not_installed(self, registry):
        checker = RevocationChecker()
        rl = registry.current_list(1.0)
        with pytest.raises(CredentialError):
            checker.update(rl, ADMIN.public)
        assert checker.known_issuers() == []


class TestEndToEndRevocation:
    def test_revoked_peer_cannot_be_messaged(self, joined_secure_world):
        from repro.errors import DiscoveryError

        w = joined_secure_world
        # sanity: works before revocation
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "pre")
        w.broker.revoke_user("bob")
        # bob is disconnected (his advertisements purged) AND on the
        # revocation list — either layer stops the send
        with pytest.raises((SecurityError, DiscoveryError)):
            w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "post")

    def test_revoked_peer_disconnected(self, joined_secure_world):
        w = joined_secure_world
        w.broker.revoke_peer(str(w.bob.peer_id))
        assert str(w.bob.peer_id) not in w.broker.connected

    def test_revocation_respects_cache(self, joined_secure_world):
        """Validation cache must not shield a freshly revoked peer.

        Revoke WITHOUT disconnecting so bob's advertisement stays in
        alice's cache: once the revocation arrives, validating it again
        must be refused.  Sends hit the validated-pipe memo above the
        validator, so the validator's digest cache is driven directly on
        bob's signed pipe element."""
        w = joined_secure_world
        bob = str(w.bob.peer_id)
        w.alice.secure_msg_peer(bob, "students", "m0")  # caches bob's pipe
        element = w.alice._resolve_pipe(bob, "students")
        validator = w.alice.validator
        for _ in range(3):  # warm alice's validation cache on bob
            validator.validate(element, w.alice.clock.now)
        assert validator.cache_hits > 0
        w.broker.revocations.revoke(bob)
        w.broker.publish_revocations()
        with pytest.raises(RevokedCredentialError):
            validator.validate(element, w.alice.clock.now)

    def test_revocation_respects_pipe_memo(self, joined_secure_world):
        """The validated-pipe memo must not shield a revoked peer either.

        With the memo enabled (the default), repeat sends hit the memo
        above the validator's digest cache — the revocation check must
        still run on every memo hit."""
        w = joined_secure_world
        for i in range(3):  # warm alice's validated-pipe memo on bob
            w.alice.secure_msg_peer(str(w.bob.peer_id), "students", f"m{i}")
        assert w.alice._validated_pipes  # memo actually warm
        w.broker.revocations.revoke(str(w.bob.peer_id))
        w.broker.publish_revocations()
        with pytest.raises(RevokedCredentialError):
            w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "cached?")

    def test_fetch_revocations_on_demand(self, joined_secure_world):
        w = joined_secure_world
        w.broker.revocations.revoke(str(w.bob.peer_id))
        w.broker._current_rl = None  # nothing pushed yet
        assert w.alice.fetch_revocations()
        with pytest.raises(SecurityError):
            w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "x")

    def test_foreign_revocation_list_ignored(self, joined_secure_world):
        """A forged revocation list (wrong issuer) must be discarded."""
        w = joined_secure_world
        forger = RevocationRegistry(
            w.carol.keystore.keys.private, w.carol.keystore.cbid)
        forged = forger.current_list(1.0)
        assert not w.alice._accept_revocation_list(forged.element)

    def test_renewal_after_revocation_refused(self, joined_secure_world):
        w = joined_secure_world
        w.broker.revocations.revoke(str(w.bob.peer_id))
        with pytest.raises(SecurityError, match="revoked|rejected"):
            w.bob.secure_renew_credential()


class TestRenewal:
    def test_renewal_issues_fresh_credential(self, joined_secure_world):
        w = joined_secure_world
        old = w.alice.keystore.credential
        w.net.clock.advance(100.0)
        fresh = w.alice.secure_renew_credential()
        assert fresh.not_after > old.not_after
        assert fresh.public_key == old.public_key
        assert w.alice.keystore.credential.not_after == fresh.not_after

    def test_renewed_chain_accepted_by_peers(self, joined_secure_world):
        w = joined_secure_world
        w.alice.secure_renew_credential()
        got = []
        w.bob.events.subscribe("secure_message_received",
                               lambda **kw: got.append(kw))
        # bob must accept messages resolved through alice's re-published adv
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "fresh")
        w.bob.validator.invalidate()
        assert got

    def test_renewal_requires_login(self, secure_world):
        w = secure_world
        w.alice.secure_connect("broker:0")
        from repro.errors import NotConnectedError

        with pytest.raises(NotConnectedError):
            w.alice.secure_renew_credential()

    def test_renewal_with_expired_credential_refused(self):
        from tests.conftest import SecureWorld

        world = SecureWorld()
        world.broker.policy = world.POLICY.with_(credential_lifetime=10.0)
        world.join_all()
        world.net.clock.advance(50.0)  # credential now expired
        with pytest.raises(SecurityError):
            world.alice.secure_renew_credential()
