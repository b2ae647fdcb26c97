"""secureConnection (§4.2.1): protocol codecs and the full exchange."""

import pytest

from repro.core import secure_connection as sc
from repro.core.credentials import issue_credential, self_signed_credential
from repro.core.session import DEFAULT_SID_LIFETIME
from repro.crypto.drbg import HmacDrbg
from repro.errors import BrokerAuthenticationError, ReplayError
from repro.jxta.ids import cbid_from_key
from tests.conftest import cached_keypair

ADMIN = cached_keypair(512, "admin")
BROKER = cached_keypair(512, "broker")
FAKE = cached_keypair(512, "fake-admin")


@pytest.fixture()
def anchor():
    return self_signed_credential(ADMIN.private, ADMIN.public, "admin", 0.0, 1e9)


@pytest.fixture()
def broker_chain():
    return [issue_credential(ADMIN.private, cbid_from_key(ADMIN.public), "admin",
                             BROKER.public, "B0", 0.0, 1e8)]


def _exchange(chall, sid, key, chain, scheme="rsa-pss-sha256"):
    return sc.build_connect_response(chall, sid, key, chain, scheme=scheme,
                                     drbg=HmacDrbg(b"resp"))


class TestChallenge:
    def test_random_and_sized(self):
        rng = HmacDrbg(b"ch")
        a = sc.build_challenge(rng, 32)
        b = sc.build_challenge(rng, 32)
        assert len(a) == 32 and a != b

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sc.build_challenge(HmacDrbg(b"x"), 8)

    def test_request_roundtrip(self):
        chall = b"c" * 32
        from repro.jxta.messages import Message

        req = sc.build_connect_request(chall)
        assert sc.parse_connect_request(
            Message.from_wire(req.to_wire())) == chall


class TestVerifyResponse:
    def test_legitimate_broker_accepted(self, anchor, broker_chain):
        chall = b"c" * 32
        resp = _exchange(chall, "sid-1", BROKER.private, broker_chain)
        result = sc.verify_connect_response(resp, chall, anchor, now=1.0)
        assert result.sid == "sid-1"
        assert result.broker_credential.subject_name == "B0"

    def test_steps_6_forged_credential_rejected(self, anchor):
        """Step 6: a chain not signed by the admin -> not a legitimate broker."""
        forged_anchor = self_signed_credential(FAKE.private, FAKE.public,
                                               "fake", 0.0, 1e9)
        resp = _exchange(b"c" * 32, "sid", FAKE.private, [forged_anchor])
        with pytest.raises(BrokerAuthenticationError, match="not a legitimate"):
            sc.verify_connect_response(resp, b"c" * 32, anchor, now=1.0)

    def test_step_7_stolen_credential_rejected(self, anchor, broker_chain):
        """Step 7: valid credential but no SK_Br -> impersonator."""
        resp = _exchange(b"c" * 32, "sid", FAKE.private, broker_chain)
        with pytest.raises(BrokerAuthenticationError, match="impersonator"):
            sc.verify_connect_response(resp, b"c" * 32, anchor, now=1.0)

    def test_wrong_challenge_rejected(self, anchor, broker_chain):
        """A replayed response signed over some OTHER challenge."""
        resp = _exchange(b"old-challenge" * 3, "sid", BROKER.private, broker_chain)
        with pytest.raises(BrokerAuthenticationError):
            sc.verify_connect_response(resp, b"c" * 32, anchor, now=1.0)

    def test_expired_broker_credential_rejected(self, anchor):
        stale = [issue_credential(ADMIN.private, cbid_from_key(ADMIN.public),
                                  "admin", BROKER.public, "B0", 0.0, 5.0)]
        resp = _exchange(b"c" * 32, "sid", BROKER.private, stale)
        with pytest.raises(BrokerAuthenticationError):
            sc.verify_connect_response(resp, b"c" * 32, anchor, now=100.0)

    def test_empty_sid_rejected(self, anchor, broker_chain):
        resp = _exchange(b"c" * 32, "", BROKER.private, broker_chain)
        with pytest.raises(BrokerAuthenticationError, match="session id"):
            sc.verify_connect_response(resp, b"c" * 32, anchor, now=1.0)

    def test_fail_message_rejected(self, anchor):
        from repro.jxta.messages import Message

        fail = Message(sc.CONNECT_FAIL)
        with pytest.raises(BrokerAuthenticationError):
            sc.verify_connect_response(fail, b"c" * 32, anchor, now=1.0)

    def test_malformed_response_rejected(self, anchor):
        from repro.jxta.messages import Message

        garbage = Message(sc.CONNECT_RESP)
        garbage.add_text("sid", "x")
        with pytest.raises(BrokerAuthenticationError, match="malformed"):
            sc.verify_connect_response(garbage, b"c" * 32, anchor, now=1.0)


class TestEndToEnd:
    def test_against_secure_broker(self, secure_world):
        cred = secure_world.alice.secure_connect("broker:0")
        assert cred.subject_name == "B0"
        assert secure_world.alice.sid is not None
        assert secure_world.alice.events.events_named("connected")

    def test_sid_differs_per_connection(self, secure_world):
        secure_world.alice.secure_connect("broker:0")
        sid_a = secure_world.alice.sid
        secure_world.bob.secure_connect("broker:0")
        assert secure_world.bob.sid != sid_a

    def test_unreachable_broker(self, secure_world):
        with pytest.raises(BrokerAuthenticationError):
            secure_world.alice.secure_connect("broker:ghost")
        assert secure_world.alice.events.events_named("broker_rejected")


class TestPendingSidBound:
    def test_abandoned_connects_are_swept_on_the_next_issue(self, secure_world):
        alice, sids = secure_world.alice, secure_world.broker.sids
        abandoned = []
        for _ in range(305):
            alice.secure_connect("broker:0")
            abandoned.append(alice.sid)
        assert sids.outstanding == 305
        secure_world.net.clock.advance(DEFAULT_SID_LIFETIME + 1.0)
        alice.secure_connect("broker:0")
        assert sids.outstanding == 1
        with pytest.raises(ReplayError):
            sids.consume(abandoned[0])
