"""Fast-path crypto: multi-recipient envelopes + session resumption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.crypto import envelope, resume
from repro.crypto.drbg import HmacDrbg
from repro.errors import DecryptionError, ReplayError, UnknownSessionError
from tests.conftest import cached_keypair

ALL_SUITES = sorted(envelope.SUITES)
ALL_WRAPS = [envelope.WRAP_OAEP, envelope.WRAP_V15]


def _keys(wrap, n=3):
    # OAEP-SHA256 needs a modulus > 2*32+2 bytes; 512-bit keys only fit v1.5.
    bits = 1024 if wrap == envelope.WRAP_OAEP else 512
    return [cached_keypair(bits, f"fast-{i}") for i in range(n)]


class TestSealMany:
    @pytest.mark.parametrize("suite", ALL_SUITES)
    @pytest.mark.parametrize("wrap", ALL_WRAPS)
    def test_roundtrip_every_recipient(self, suite, wrap):
        kps = _keys(wrap)
        plaintext = b"group payload " * 50
        sealed = envelope.seal_many([kp.public for kp in kps], plaintext,
                                    suite=suite, wrap=wrap, aad=b"ctx")
        assert not sealed.seeds
        for kp in kps:
            opened = envelope.open_detailed(kp.private, sealed.envelope,
                                            aad=b"ctx")
            assert opened.plaintext == plaintext
            assert opened.suite == suite
            assert opened.resume_seed is None

    @pytest.mark.parametrize("suite", ALL_SUITES)
    @pytest.mark.parametrize("wrap", ALL_WRAPS)
    def test_resumable_roundtrip_and_distinct_seeds(self, suite, wrap):
        kps = _keys(wrap)
        seeds = envelope.mint_seeds([kp.public for kp in kps])
        sealed = envelope.seal_many([kp.public for kp in kps], b"m",
                                    suite=suite, wrap=wrap, seeds=seeds)
        assert sealed.seeds == seeds
        assert len(sealed.seeds) == len(kps)
        assert len(set(sealed.seeds.values())) == len(kps)  # pair-wise seeds
        for kp in kps:
            opened = envelope.open_detailed(kp.private, sealed.envelope)
            assert opened.plaintext == b"m"
            fp = kp.public.fingerprint().hex()
            assert opened.resume_seed == sealed.seeds[fp]
            assert len(opened.resume_seed) == envelope.RESUME_SEED_LEN

    def test_seeds_must_cover_every_recipient(self):
        kps = _keys(envelope.WRAP_V15, n=2)
        seeds = envelope.mint_seeds([kps[0].public])
        with pytest.raises(ValueError):
            envelope.seal_many([kp.public for kp in kps], b"m",
                               wrap=envelope.WRAP_V15, seeds=seeds)

    @pytest.mark.parametrize("suite", ALL_SUITES)
    @pytest.mark.parametrize("wrap", ALL_WRAPS)
    def test_tampered_body_rejected(self, suite, wrap):
        kps = _keys(wrap, n=2)
        # Pin the CEK/IV stream: with the process-global drbg the CBC
        # suites (no tag) would hit the ~1/256 lucky-padding case or not
        # depending on how many draws earlier tests made.
        sealed = envelope.seal_many([kp.public for kp in kps], b"payload",
                                    suite=suite, wrap=wrap,
                                    drbg=HmacDrbg(
                                        seed=f"tamper|{suite}|{wrap}".encode()))
        env = dict(sealed.envelope)
        body = env["body"]
        env["body"] = ("A" if body[0] != "A" else "B") + body[1:]
        for kp in kps:
            with pytest.raises(DecryptionError):
                envelope.open_(kp.private, env)

    def test_non_recipient_rejected(self):
        member, outsider = _keys(envelope.WRAP_V15, n=2)
        sealed = envelope.seal_many([member.public], b"secret",
                                    wrap=envelope.WRAP_V15)
        with pytest.raises(DecryptionError):
            envelope.open_(outsider.private, sealed.envelope)

    def test_aad_mismatch_rejected(self):
        kp = _keys(envelope.WRAP_V15, n=1)[0]
        sealed = envelope.seal_many([kp.public], b"m", wrap=envelope.WRAP_V15,
                                    aad=b"right")
        with pytest.raises(DecryptionError):
            envelope.open_(kp.private, sealed.envelope, aad=b"wrong")

    def test_needs_at_least_one_recipient(self):
        with pytest.raises(ValueError):
            envelope.seal_many([], b"m")

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=4000))
    def test_arbitrary_payloads(self, plaintext):
        kps = _keys(envelope.WRAP_V15, n=2)
        sealed = envelope.seal_many([kp.public for kp in kps], plaintext,
                                    wrap=envelope.WRAP_V15,
                                    drbg=HmacDrbg(b"fixed"))
        for kp in kps:
            assert envelope.open_(kp.private, sealed.envelope) == plaintext

    def test_single_recipient_baseline_seal_unchanged(self):
        """Ablation bit-compatibility: with the fast path off, protocol
        code calls :func:`envelope.seal`, whose draw order and format are
        untouched — an old-format envelope opens via the same
        ``open_detailed`` the fast path uses."""
        kp = _keys(envelope.WRAP_V15, n=1)[0]
        env = envelope.seal(kp.public, b"legacy", wrap=envelope.WRAP_V15,
                            drbg=HmacDrbg(b"legacy-draws"))
        assert set(env) == {"suite", "wrap", "wrapped_key", "nonce", "body"}
        opened = envelope.open_detailed(kp.private, env)
        assert opened.plaintext == b"legacy"
        assert opened.resume_seed is None


class TestResumedFrames:
    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_roundtrip_all_suites(self, suite):
        seed = bytes(range(16))
        sender = resume.derive_session(seed, suite, now=0.0)
        receiver = resume.derive_session(seed, suite, now=0.0)
        for i in range(5):
            frame = resume.seal_resumed(sender, b"msg %d" % i, aad=b"ctx")
            assert frame["resume"] == sender.sid
            assert resume.open_resumed(receiver, frame, aad=b"ctx") == b"msg %d" % i

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_replayed_frame_rejected(self, suite):
        seed = b"\x07" * 16
        sender = resume.derive_session(seed, suite, now=0.0)
        receiver = resume.derive_session(seed, suite, now=0.0)
        frame = resume.seal_resumed(sender, b"once")
        assert resume.open_resumed(receiver, frame) == b"once"
        with pytest.raises(ReplayError):
            resume.open_resumed(receiver, frame)

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_tampered_frame_rejected_without_state_advance(self, suite):
        seed = b"\x21" * 16
        sender = resume.derive_session(seed, suite, now=0.0)
        receiver = resume.derive_session(seed, suite, now=0.0)
        frame = resume.seal_resumed(sender, b"payload", aad=b"a")
        bad = dict(frame)
        body = bad["body"]
        bad["body"] = ("A" if body[0] != "A" else "B") + body[1:]
        with pytest.raises(DecryptionError):
            resume.open_resumed(receiver, bad, aad=b"a")
        # the failed frame must not burn the seq: the original still opens
        assert resume.open_resumed(receiver, frame, aad=b"a") == b"payload"

    def test_aad_bound(self):
        seed = b"\x33" * 16
        sender = resume.derive_session(seed, "chacha20poly1305", now=0.0)
        receiver = resume.derive_session(seed, "chacha20poly1305", now=0.0)
        frame = resume.seal_resumed(sender, b"m", aad=b"one")
        with pytest.raises(DecryptionError):
            resume.open_resumed(receiver, frame, aad=b"two")

    def test_suite_mismatch_rejected(self):
        seed = b"\x44" * 16
        sender = resume.derive_session(seed, "chacha20poly1305", now=0.0)
        receiver = resume.derive_session(seed, "chacha20poly1305", now=0.0)
        frame = resume.seal_resumed(sender, b"m")
        frame["suite"] = "aes128-cbc"
        with pytest.raises(DecryptionError):
            resume.open_resumed(receiver, frame)

    def test_derivation_is_deterministic_and_suite_separated(self):
        seed = b"\x55" * 16
        a = resume.derive_session(seed, "aes128-cbc", now=0.0)
        b = resume.derive_session(seed, "aes128-cbc", now=0.0)
        c = resume.derive_session(seed, "aes256-cbc", now=0.0)
        assert (a.key, a.mac_key, a.sid) == (b.key, b.mac_key, b.sid)
        assert a.key != c.key[:len(a.key)]
        assert a.sid == c.sid  # the public id names the seed, not the suite


class TestSenderResumeCache:
    def test_hit_within_budget(self):
        cache = resume.SenderResumeCache(ttl=10.0, max_uses=4)
        session = cache.store("fp1", b"\x01" * 16, "aes128-cbc", now=0.0)
        assert cache.get("fp1", now=1.0) is session

    def test_ttl_expiry(self):
        cache = resume.SenderResumeCache(ttl=10.0)
        cache.store("fp1", b"\x01" * 16, "aes128-cbc", now=0.0)
        assert cache.get("fp1", now=11.0) is None
        assert len(cache) == 0

    def test_use_budget_forces_rekey(self):
        cache = resume.SenderResumeCache(ttl=100.0, max_uses=2)
        session = cache.store("fp1", b"\x01" * 16, "aes128-cbc", now=0.0)
        for _ in range(2):
            resume.seal_resumed(session, b"m")
        assert cache.get("fp1", now=1.0) is None

    def test_lru_eviction(self):
        cache = resume.SenderResumeCache(max_peers=2)
        cache.store("fp1", b"\x01" * 16, "aes128-cbc", now=0.0)
        cache.store("fp2", b"\x02" * 16, "aes128-cbc", now=0.0)
        cache.get("fp1", now=0.0)               # fp1 becomes most-recent
        cache.store("fp3", b"\x03" * 16, "aes128-cbc", now=0.0)
        assert cache.get("fp2", now=0.0) is None
        assert cache.get("fp1", now=0.0) is not None

    def test_invalidate_sid(self):
        cache = resume.SenderResumeCache()
        session = cache.store("fp1", b"\x01" * 16, "aes128-cbc", now=0.0)
        assert cache.invalidate_sid(session.sid) is True
        assert cache.invalidate_sid(session.sid) is False  # already gone
        assert cache.get("fp1", now=0.0) is None


class TestReceiverResumeStore:
    def _pair(self, **kw):
        store = resume.ReceiverResumeStore(**kw)
        seed = b"\x10" * 16
        sender = resume.derive_session(seed, "chacha20poly1305", now=0.0)
        store.register(seed, "chacha20poly1305", "alice-cred", now=0.0)
        return store, sender

    def test_open_returns_bound_identity(self):
        store, sender = self._pair()
        frame = resume.seal_resumed(sender, b"hello", aad=b"x")
        plain, identity = store.open(frame, b"x", now=1.0)
        assert plain == b"hello"
        assert identity == "alice-cred"

    def test_unknown_sid_raises_unknown_session(self):
        store = resume.ReceiverResumeStore()
        sender = resume.derive_session(b"\x66" * 16, "aes128-cbc", now=0.0)
        frame = resume.seal_resumed(sender, b"m")
        with pytest.raises(UnknownSessionError) as exc_info:
            store.open(frame, b"", now=0.0)
        assert exc_info.value.sid == sender.sid

    def test_expired_session_raises_unknown_session(self):
        store, sender = self._pair(ttl=5.0)
        frame = resume.seal_resumed(sender, b"m", aad=b"x")
        with pytest.raises(UnknownSessionError):
            store.open(frame, b"x", now=6.0)
        assert len(store) == 0

    def test_replay_blocked_emits_hook(self):
        registry = obs.Registry()
        saved = (obs.get_registry(), obs.get_events())
        obs.set_registry(registry)
        obs.set_events(obs.ProtocolEvents(registry=registry))
        try:
            blocked = []
            obs.on("on_replay_blocked", lambda **kw: blocked.append(kw))
            store, sender = self._pair()
            frame = resume.seal_resumed(sender, b"m", aad=b"x")
            store.open(frame, b"x", now=0.0)
            with pytest.raises(ReplayError):
                store.open(frame, b"x", now=0.0)
        finally:
            obs.set_registry(saved[0])
            obs.set_events(saved[1])
        assert blocked and blocked[0]["kind"] == "resume"
        assert registry.count("crypto.resume.replay_blocked") == 1

    def test_lru_bound(self):
        store = resume.ReceiverResumeStore(max_sessions=2)
        for i in range(3):
            store.register(bytes([i]) * 16, "aes128-cbc", f"peer{i}", now=0.0)
        assert len(store) == 2

    def test_duplicate_register_keeps_replay_high_water(self):
        """A replayed establishing envelope must not reset ``seq``:
        otherwise a recorded run of accepted resumed frames could be
        replayed wholesale against the re-registered session."""
        store = resume.ReceiverResumeStore()
        seed = b"\x77" * 16
        sender = resume.derive_session(seed, "chacha20poly1305", now=0.0)
        store.register(seed, "chacha20poly1305", "alice-cred", now=0.0)
        frames = [resume.seal_resumed(sender, b"m%d" % i, aad=b"x")
                  for i in range(3)]
        for frame in frames:
            store.open(frame, b"x", now=0.0)
        # attacker (or a retried delivery) replays the establishing envelope
        assert store.register(seed, "chacha20poly1305", "alice-cred",
                              now=1.0) == sender.sid
        for frame in frames:
            with pytest.raises(ReplayError):
                store.open(frame, b"x", now=1.0)
        # the live session keeps working past the duplicate registration
        fresh = resume.seal_resumed(sender, b"fresh", aad=b"x")
        plain, identity = store.open(fresh, b"x", now=1.0)
        assert plain == b"fresh" and identity == "alice-cred"


class TestSeedCommitments:
    def test_commitment_roundtrip(self):
        from repro.xmllib import Element

        doc = Element("Body")
        seeds = {"fp-a": b"\x01" * 16, "fp-b": b"\x02" * 16}
        resume.add_seed_commitments(doc, seeds)
        for fp, seed in seeds.items():
            assert resume.check_seed_commitment(doc, fp, seed)

    def test_wrong_seed_or_foreign_fingerprint_rejected(self):
        from repro.xmllib import Element

        doc = Element("Body")
        seeds = {"fp-a": b"\x01" * 16, "fp-b": b"\x02" * 16}
        resume.add_seed_commitments(doc, seeds)
        assert not resume.check_seed_commitment(doc, "fp-a", b"\x03" * 16)
        # a co-recipient's genuine seed does not verify under our fp
        assert not resume.check_seed_commitment(doc, "fp-a", seeds["fp-b"])
        assert not resume.check_seed_commitment(doc, "fp-c", b"\x01" * 16)

    def test_document_without_commitments_rejected(self):
        from repro.xmllib import Element

        assert not resume.check_seed_commitment(Element("Body"), "fp",
                                                b"\x01" * 16)

    def test_re_adding_replaces_stale_commitments(self):
        from repro.xmllib import Element

        doc = Element("Body")
        resume.add_seed_commitments(doc, {"fp-a": b"\x01" * 16})
        resume.add_seed_commitments(doc, {"fp-a": b"\x09" * 16})
        assert len(doc.findall(resume.COMMITS_TAG)) == 1
        assert not resume.check_seed_commitment(doc, "fp-a", b"\x01" * 16)
        assert resume.check_seed_commitment(doc, "fp-a", b"\x09" * 16)

    def test_commitment_reveals_neither_seed_nor_sid(self):
        seed = b"\x42" * 16
        assert resume.seed_commitment(seed) != resume.session_id(seed)
        assert seed.hex() not in resume.seed_commitment(seed)
