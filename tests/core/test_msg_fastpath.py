"""Client-level fast paths: seal_many fan-out, resumption, recovery.

The ablation contract: every scenario here must ALSO hold with the fast
paths disabled (the paper-faithful baseline) and in *mixed* deployments
— a fast sender talking to a baseline receiver and vice versa — because
the receiver-side resumption store is a protocol capability, not a
policy choice.
"""

import pytest

from repro import obs
from tests.conftest import SecureWorld, TEST_POLICY, received_texts

BASELINE_POLICY = TEST_POLICY.with_(enable_seal_many=False,
                                    enable_resumption=False)


class BaselineWorld(SecureWorld):
    POLICY = BASELINE_POLICY


@pytest.fixture()
def registry():
    registry = obs.Registry()
    saved = obs.set_registry(registry)
    yield registry
    obs.set_registry(saved)


def _rsa_ops(registry):
    return (registry.count("crypto.rsa.private_op"),
            registry.count("crypto.rsa.public_op"),
            registry.count("crypto.rsa.verify_op"))


class TestResumedChat:
    def test_steady_state_sends_cost_zero_rsa(self, joined_secure_world,
                                              registry):
        w = joined_secure_world
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "first")
        before = _rsa_ops(registry)
        for i in range(5):
            assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                           f"steady {i}")
        assert _rsa_ops(registry) == before
        assert received_texts(w.bob) == ["first"] + [f"steady {i}"
                                                      for i in range(5)]

    def test_resumed_messages_attribute_to_sender(self, joined_secure_world):
        w = joined_secure_world
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "establish")
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "resumed")
        received = w.bob.events.events_named("secure_message_received")
        assert {e["from_user"] for e in received} == {"alice"}
        assert {e["from_peer"] for e in received} == {str(w.alice.peer_id)}

    def test_receiver_losing_store_triggers_rekey_resend(
            self, joined_secure_world):
        """The resume_reset path: a receiver that cannot map a resumed
        frame asks the sender to re-key; the sender resends the same
        payload as a full signed envelope — nothing is lost."""
        w = joined_secure_world
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "establish")
        w.bob.resume_store.invalidate()        # simulated receiver restart
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                       "after restart")
        assert received_texts(w.bob) == ["establish", "after restart"]
        assert w.alice.metrics.count("client.resume_fallback") == 1
        # and the re-keyed session carries the next message with 0 RSA
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "resumed again")
        assert received_texts(w.bob)[-1] == "resumed again"

    def test_forged_reset_only_downgrades(self, joined_secure_world):
        """A reset for a sid we never minted is ignored; a forged reset
        for a real sid merely forces one extra full envelope."""
        w = joined_secure_world
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "establish")
        assert len(w.alice.resume_sessions) == 1
        from repro.core import secure_messaging as sm
        from repro.jxta.messages import Message
        bogus = Message(sm.RESUME_RESET)
        bogus.add_text("sid", "f" * 32)
        w.alice._fn_resume_reset(bogus, "peer:mallory")
        assert len(w.alice.resume_sessions) == 1  # unknown sid ignored
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "still ok")
        assert received_texts(w.bob)[-1] == "still ok"


class TestGroupFanOut:
    def test_one_signature_for_the_whole_group(self, joined_secure_world,
                                               registry):
        w = joined_secure_world
        delivered = w.alice.secure_msg_peer_group("students", "to everyone")
        assert int(delivered) == 1            # students = alice + bob
        # 1 sign + 1 unwrap (bob) — not one sign per member
        private, public, _ = _rsa_ops(registry)
        assert private == 2 and public == 1
        assert received_texts(w.bob) == ["to everyone"]

    def test_second_group_send_is_fully_resumed(self, joined_secure_world,
                                                registry):
        w = joined_secure_world
        w.alice.secure_msg_peer_group("students", "one")
        before = _rsa_ops(registry)
        w.alice.secure_msg_peer_group("students", "two")
        assert _rsa_ops(registry) == before
        assert received_texts(w.bob) == ["one", "two"]


class TestMixedPolicyInterop:
    def test_fast_sender_baseline_receiver(self, joined_secure_world):
        w = joined_secure_world
        w.bob.policy = BASELINE_POLICY        # bob will never mint sessions
        for i in range(3):
            assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                           f"m{i}")
        assert received_texts(w.bob) == ["m0", "m1", "m2"]

    def test_baseline_sender_fast_receiver(self, joined_secure_world,
                                           registry):
        w = joined_secure_world
        w.alice.policy = BASELINE_POLICY
        for i in range(3):
            assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                           f"m{i}")
        assert received_texts(w.bob) == ["m0", "m1", "m2"]
        assert registry.count("crypto.resume.seal") == 0  # nothing resumed

    def test_baseline_world_end_to_end(self):
        """Full ablation: both fast paths off reproduces the paper's
        stateless behavior — every message is an independent envelope."""
        w = BaselineWorld()
        w.join_all()
        registry = obs.Registry()
        saved = obs.set_registry(registry)
        try:
            for i in range(3):
                assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                               f"m{i}")
        finally:
            obs.set_registry(saved)
        assert received_texts(w.bob) == ["m0", "m1", "m2"]
        assert registry.count("crypto.envelope.seal") == 3
        assert registry.count("crypto.envelope.seal_many") == 0
        assert registry.count("crypto.resume.seal") == 0


class TestChunkedFileTransfer:
    def test_large_file_roundtrip_with_resumed_chunks(self,
                                                      joined_secure_world,
                                                      registry):
        from repro.core import secure_filesharing as sf

        w = joined_secure_world
        data = bytes(range(256)) * 512        # 128 KiB = 4 chunks
        w.alice.secure_publish_file("students", "big.bin", data)
        w.bob.secure_search_files(group="students")
        fetched = w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                            "big.bin")
        assert fetched == data
        # RSA only on the establishing chunk; later chunks are resumed
        # in BOTH directions.
        assert registry.count("crypto.resume.seal") >= 2 * (
            len(data) // sf.CHUNK_SIZE - 1)

    def test_small_file_still_roundtrips(self, joined_secure_world):
        w = joined_secure_world
        w.alice.secure_publish_file("students", "tiny.txt", b"tiny")
        w.bob.secure_search_files(group="students")
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "tiny.txt") == b"tiny"

    def test_baseline_world_file_roundtrip(self):
        w = BaselineWorld()
        w.join_all()
        data = b"chunkless " * 6000           # > CHUNK_SIZE, single response
        w.alice.secure_publish_file("students", "whole.bin", data)
        w.bob.secure_search_files(group="students")
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "whole.bin") == data


class TestFileTransferRekey:
    """Mid-transfer session loss on either side must cost one re-keyed
    chunk, never a failed transfer (REVIEW: _chunked_secure_fetch had no
    recovery when the owner forgot the requester's session)."""

    DATA = bytes(range(256)) * 512            # 128 KiB = 4 chunks

    def _publish_and_prime(self, w):
        w.alice.secure_publish_file("students", "big.bin", self.DATA)
        w.bob.secure_search_files(group="students")
        # first transfer establishes the sessions in both directions
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "big.bin") == self.DATA

    def test_owner_forgetting_requester_session_recovers(
            self, joined_secure_world):
        w = joined_secure_world
        self._publish_and_prime(w)
        w.alice.resume_store.invalidate()     # owner restart / LRU eviction
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "big.bin") == self.DATA
        assert w.bob.metrics.count("client.file_resume_fallback") == 1
        # re-keyed sessions carry a third transfer without falling back
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "big.bin") == self.DATA
        assert w.bob.metrics.count("client.file_resume_fallback") == 1

    def test_requester_losing_response_session_recovers(
            self, joined_secure_world):
        w = joined_secure_world
        self._publish_and_prime(w)
        w.bob.resume_store.invalidate()       # requester restart
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "big.bin") == self.DATA
        assert w.bob.metrics.count("client.file_resume_fallback") >= 1
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "big.bin") == self.DATA

    def test_both_sides_losing_state_recovers(self, joined_secure_world):
        w = joined_secure_world
        self._publish_and_prime(w)
        w.alice.resume_store.invalidate()
        w.alice.resume_sessions.invalidate(
            w.bob.keystore.keys.public.fingerprint().hex())
        w.bob.resume_store.invalidate()
        w.bob.resume_sessions.invalidate(
            w.alice.keystore.keys.public.fingerprint().hex())
        assert w.bob.secure_request_file(str(w.alice.peer_id), "students",
                                         "big.bin") == self.DATA


class TestSeedBinding:
    """The signed-commitment defence: a resumption seed roots a session
    only when the sender's signature covers a commitment to it.  Any CEK
    holder can re-wrap ``CEK || seed'`` to a third peer while reusing
    the genuinely signed payload — the commitment check must refuse it."""

    def _sealed_resumable(self, sender_kp, recipient_kps):
        from repro.core import secure_messaging as sm
        from repro.crypto import envelope, signing
        from repro.crypto.drbg import HmacDrbg

        payload = sm.build_payload(
            from_peer="peer:attacker-test", group="g", text="hi",
            nonce=b"\x01" * 16, timestamp=0.0)
        message, seeds = sm.seal_message_fast(
            payload, sender_kp.private, [kp.public for kp in recipient_kps],
            suite="chacha20poly1305", wrap=envelope.WRAP_V15,
            scheme=signing.SCHEME_V15, drbg=HmacDrbg(b"seed-binding"),
            resumable=True)
        return message.get_json("envelope"), seeds

    @staticmethod
    def _unwrap_cek(env, kp):
        from repro.crypto import pkcs1
        from repro.utils.encoding import b64decode

        fp = kp.public.fingerprint().hex()
        blob = pkcs1.decrypt_v15(kp.private, b64decode(env["wrapped_keys"][fp]))
        return blob[:32], blob[32:]

    @staticmethod
    def _open_as(env, kp):
        from repro.core import secure_messaging as sm
        from repro.jxta.messages import Message

        forged = Message(sm.SECURE_CHAT)
        forged.add_json("envelope", env)
        return sm.open_message(forged, kp.private)

    def test_legit_recipient_gets_committed_seed(self):
        from tests.conftest import cached_keypair

        alice = cached_keypair(512, "seedbind-alice")
        bob = cached_keypair(512, "seedbind-bob")
        env, seeds = self._sealed_resumable(alice, [bob])
        opened = self._open_as(env, bob)
        assert opened.resume_seed == seeds[bob.public.fingerprint().hex()]

    def test_rewrapped_attacker_seed_rejected(self):
        from repro.crypto import pkcs1
        from repro.crypto.drbg import HmacDrbg
        from repro.errors import TamperedMessageError
        from repro.utils.encoding import b64encode
        from tests.conftest import cached_keypair

        alice = cached_keypair(512, "seedbind-alice")
        mallory = cached_keypair(512, "seedbind-mallory")
        bob = cached_keypair(512, "seedbind-bob")
        env, seeds = self._sealed_resumable(alice, [mallory])
        # Mallory, the legitimate recipient, extracts the shared CEK and
        # re-targets the signed envelope at bob with a seed she knows.
        cek, seed_m = self._unwrap_cek(env, mallory)
        assert seed_m == seeds[mallory.public.fingerprint().hex()]
        forged = dict(env)
        for evil_seed in (b"\xee" * 16, seed_m):  # fresh or her own seed
            forged["wrapped_keys"] = {
                bob.public.fingerprint().hex(): b64encode(pkcs1.encrypt_v15(
                    bob.public, cek + evil_seed, drbg=HmacDrbg(b"evil")))}
            with pytest.raises(TamperedMessageError):
                self._open_as(forged, bob)

    def test_corecipient_cannot_plant_seed_on_group_member(self):
        from repro.crypto import pkcs1
        from repro.crypto.drbg import HmacDrbg
        from repro.errors import TamperedMessageError
        from repro.utils.encoding import b64encode
        from tests.conftest import cached_keypair

        alice = cached_keypair(512, "seedbind-alice")
        mallory = cached_keypair(512, "seedbind-mallory")
        bob = cached_keypair(512, "seedbind-bob")
        env, _seeds = self._sealed_resumable(alice, [mallory, bob])
        cek, seed_m = self._unwrap_cek(env, mallory)
        forged = dict(env)
        forged["wrapped_keys"] = dict(env["wrapped_keys"])
        forged["wrapped_keys"][bob.public.fingerprint().hex()] = b64encode(
            pkcs1.encrypt_v15(bob.public, cek + seed_m, drbg=HmacDrbg(b"evil")))
        with pytest.raises(TamperedMessageError):
            self._open_as(forged, bob)
        # the untouched entry still opens for bob in the original envelope
        assert self._open_as(env, bob).text == "hi"


class TestSendFailureSessionHygiene:
    def test_group_member_missing_delivery_gets_no_session(
            self, joined_secure_world):
        w = joined_secure_world
        real_send = w.alice._send_sealed_frame
        w.alice._send_sealed_frame = lambda *a, **kw: False
        try:
            assert w.alice.secure_msg_peer_group("students", "lost") == 0
            assert len(w.alice.resume_sessions) == 0  # no poisoned session
        finally:
            w.alice._send_sealed_frame = real_send
        # delivery restored: the next fan-out re-keys cleanly, no reset trip
        assert w.alice.secure_msg_peer_group("students", "ok") == 1
        assert received_texts(w.bob) == ["ok"]
        assert w.alice.metrics.count("client.resume_fallback") == 0

    def test_single_peer_failed_establish_gets_no_session(
            self, joined_secure_world):
        w = joined_secure_world
        real_send = w.alice._send_sealed_frame
        w.alice._send_sealed_frame = lambda *a, **kw: False
        try:
            assert not w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                               "lost")
            assert len(w.alice.resume_sessions) == 0
        finally:
            w.alice._send_sealed_frame = real_send
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "ok")
        assert received_texts(w.bob) == ["ok"]


class TestTrustCacheFlush:
    def test_revocation_flush_clears_fast_path_state(self,
                                                     joined_secure_world):
        w = joined_secure_world
        w.alice.secure_msg_peer(str(w.bob.peer_id), "students", "warm")
        assert len(w.alice.resume_sessions) == 1
        assert len(w.bob.resume_store) == 1
        w.alice._flush_trust_caches()
        w.bob._flush_trust_caches()
        assert len(w.alice.resume_sessions) == 0
        assert len(w.bob.resume_store) == 0
        # messaging recovers by re-keying transparently
        assert w.alice.secure_msg_peer(str(w.bob.peer_id), "students",
                                       "re-keyed")
        assert received_texts(w.bob)[-1] == "re-keyed"
