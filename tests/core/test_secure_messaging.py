"""secureMsgPeer / secureMsgPeerGroup (§4.3)."""

import pytest

from repro.core import secure_messaging as sm
from repro.errors import PolicyError, PrimitiveError, TamperedMessageError
from repro.jxta.messages import Message
from tests.conftest import cached_keypair

ALICE = cached_keypair(512, "client-alice")
BOB = cached_keypair(512, "client-bob")

SUITE = "chacha20poly1305"
WRAP = "rsa-pkcs1v15"
SCHEME = "rsa-pss-sha256"


def _sealed(text="hi", group="g", nonce=b"n" * 16):
    payload = sm.build_payload("urn:jxta:cbid-" + "aa" * 16, group, text,
                               nonce, 1.0)
    return sm.seal_message(payload, ALICE.private, BOB.public,
                           SUITE, WRAP, SCHEME)


class TestCodecs:
    def test_roundtrip(self):
        msg = Message.from_wire(_sealed("hello world").to_wire())
        opened = sm.open_message(msg, BOB.private)
        assert opened.text == "hello world"
        assert opened.group == "g"
        opened.verify_sender(ALICE.public)

    def test_confidentiality(self):
        wire = _sealed("the secret plan").to_wire()
        assert b"the secret plan" not in wire

    def test_wrong_recipient_cannot_open(self):
        with pytest.raises(TamperedMessageError):
            sm.open_message(_sealed(), ALICE.private)

    def test_sender_verification_fails_for_wrong_key(self):
        opened = sm.open_message(_sealed(), BOB.private)
        with pytest.raises(TamperedMessageError):
            opened.verify_sender(BOB.public)

    def test_tampered_envelope_rejected(self):
        msg = _sealed()
        env = msg.get_json("envelope")
        body = env["body"]
        env["body"] = body[:10] + ("A" if body[10] != "A" else "B") + body[11:]
        tampered = Message(sm.SECURE_CHAT)
        tampered.add_json("envelope", env)
        with pytest.raises(TamperedMessageError):
            sm.open_message(tampered, BOB.private)

    def test_signature_swap_detected(self):
        """Substituting the signature of a different message must fail."""
        a = sm.open_message(_sealed("one"), BOB.private)
        b = sm.open_message(_sealed("two"), BOB.private)
        with pytest.raises(TamperedMessageError):
            # verify "one"'s payload against "two"'s signature
            sm.OpenedMessage(
                from_peer=a.from_peer, group=a.group, text=a.text,
                nonce=a.nonce, timestamp=a.timestamp, payload=a.payload,
                signature=b.signature, scheme=b.scheme,
            ).verify_sender(ALICE.public)


class TestEndToEnd:
    def test_secure_message_delivery(self, joined_secure_world):
        w = joined_secure_world
        got = []
        w.bob.events.subscribe("secure_message_received",
                               lambda **kw: got.append(kw))
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "hi bob")
        assert got[0]["text"] == "hi bob"
        assert got[0]["from_user"] == "alice"
        assert got[0]["from_peer"] == str(w.alice.peer_id)
        assert got[0]["group"] == "students"

    def test_plaintext_never_on_wire(self, joined_secure_world):
        from repro.attacks import Eavesdropper

        w = joined_secure_world
        spy = Eavesdropper().attach(w.net)
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                "extremely confidential")
        assert not spy.saw_text("extremely confidential")

    def test_group_send(self, joined_secure_world):
        w = joined_secure_world
        got = []
        w.bob.events.subscribe("secure_message_received",
                               lambda **kw: got.append(kw))
        assert w.alice.secure_msg_peer_group("students", "all hands") == 1
        assert got[0]["text"] == "all hands"

    def test_non_member_rejected(self, joined_secure_world):
        w = joined_secure_world
        with pytest.raises(PrimitiveError):
            w.alice.secure_msg_peer(str(w.carol.peer_id), "teachers", "x")

    def test_duplicate_nonce_rejected(self, joined_secure_world):
        """Replaying the captured ciphertext to the same recipient."""
        w = joined_secure_world
        captured = []
        original_send = w.net.send

        def capture(src, dst, payload):
            if b"secure_chat" in payload:
                captured.append((src, dst, payload))
            return original_send(src, dst, payload)

        w.net.send = capture
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "once")
        w.net.send = original_send
        assert captured
        src, dst, payload = captured[0]
        w.net.send("peer:mallory-addr", dst, payload)  # replay
        rejected = w.bob.events.events_named("message_rejected")
        assert any("replay" in e["reason"] or "nonce" in e["reason"]
                   for e in rejected)
        accepted = w.bob.events.events_named("secure_message_received")
        assert len(accepted) == 1

    def test_foreign_group_message_rejected(self, joined_secure_world):
        """carol (teachers) seals a message claiming group 'teachers' and
        fires it at bob's students pipe: bob is not in that group."""
        w = joined_secure_world
        opened_events = []
        w.bob.events.subscribe("message_rejected",
                               lambda **kw: opened_events.append(kw))
        payload = sm.build_payload(str(w.carol.peer_id), "teachers", "x",
                                   b"n" * 16, 1.0)
        msg = sm.seal_message(
            payload, w.carol.keystore.keys.private,
            w.bob.keystore.keys.public,
            w.carol.policy.envelope_suite, w.carol.policy.envelope_wrap,
            w.carol.policy.signature_scheme)
        pipe = w.bob.input_pipes["students"]
        outer = Message("pipe_data")
        outer.add_text("pipe_id", str(pipe.pipe_id))
        outer.add_xml("inner", msg.to_element())
        w.net.send("peer:carol", "peer:bob", outer.to_wire())
        assert any("not in" in e["reason"] for e in opened_events)

    def test_policy_enforce_blocks_plain_send(self, secure_world):
        w = secure_world
        w.alice.policy = w.alice.policy.with_(enforce_secure_messaging=True)
        w.alice.secure_connect("broker:0")
        w.alice.secure_login("alice", "pw-a")
        with pytest.raises(PolicyError):
            w.alice.send_msg_peer(str(w.bob.peer_id), "students", "x")

    def test_policy_enforce_rejects_incoming_plain(self, joined_secure_world):
        w = joined_secure_world
        w.bob.policy = w.bob.policy.with_(enforce_secure_messaging=True)
        w.alice.send_msg_peer(str(w.bob.peer_id), "students", "plain hi")
        assert not w.bob.events.events_named("message_received")
        assert any("policy" in e["reason"]
                   for e in w.bob.events.events_named("message_rejected"))

    def test_adv_validation_cached_across_messages(self, joined_secure_world):
        """The validator's digest cache answers repeat validations of the
        same signed pipe element (sends reach it through the memo)."""
        w = joined_secure_world
        bob = str(w.bob.peer_id)
        w.alice.secure_msg_peer(bob, "students", "m0")  # caches bob's pipe
        element = w.alice._resolve_pipe(bob, "students")
        for _ in range(3):
            w.alice.validator.validate(element, w.alice.clock.now)
        assert w.alice.validator.cache_hits >= 2

    def test_adv_validation_memoized_across_messages(self, joined_secure_world):
        """With the pipe memo on (default), repeat sends skip the validator."""
        w = joined_secure_world
        for i in range(3):
            w.alice.secure_msg_peer(str(w.bob.peer_id), "students", f"m{i}")
        assert w.alice._validated_pipes  # memo holds bob's pipe
        # the memo sits above the digest cache, so the validator itself
        # is consulted exactly once (the miss) and never hits its cache
        assert w.alice.validator.cache_hits == 0
