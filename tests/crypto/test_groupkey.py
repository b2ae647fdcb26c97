"""Epoch group keys: derivation scoping, seal/open, ring taxonomy."""

from __future__ import annotations

import pytest

from repro import obs
from repro.crypto import groupkey
from repro.crypto.drbg import HmacDrbg
from repro.errors import DecryptionError, StaleEpochError, UnknownEpochError

SECRET = b"\x01" * groupkey.EPOCH_SECRET_LEN
OTHER = b"\x02" * groupkey.EPOCH_SECRET_LEN


@pytest.fixture()
def drbg():
    return HmacDrbg(b"groupkey-tests")


class TestDerivation:
    def test_scope_binds_group_and_epoch(self):
        base = groupkey.derive_epoch_key("chess", 1, SECRET)
        assert groupkey.derive_epoch_key("chess", 1, SECRET) == base
        assert groupkey.derive_epoch_key("chess", 2, SECRET).key != base.key
        assert groupkey.derive_epoch_key("go", 1, SECRET).key != base.key
        assert base.key != base.mac_key

    def test_wrong_secret_length_rejected(self):
        with pytest.raises(ValueError):
            groupkey.derive_epoch_key("chess", 1, b"short")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            groupkey.derive_epoch_key("chess", 1, SECRET, suite="rot13")


class TestSealOpen:
    @pytest.mark.parametrize("suite", ["chacha20poly1305", "aes128-cbc",
                                       "aes256-cbc"])
    def test_roundtrip(self, drbg, suite):
        if suite not in groupkey.SUITES:
            pytest.skip(f"suite {suite} not built in")
        ek = groupkey.derive_epoch_key("chess", 3, SECRET, suite=suite)
        env = groupkey.seal_epoch(ek, b"knight to f3", drbg)
        assert env["group"] == "chess" and env["epoch"] == 3
        assert groupkey.open_epoch(ek, env) == b"knight to f3"

    def test_nonces_are_random_per_frame(self, drbg):
        ek = groupkey.derive_epoch_key("chess", 1, SECRET)
        envs = [groupkey.seal_epoch(ek, b"same text", drbg) for _ in range(4)]
        assert len({e["nonce"] for e in envs}) == 4
        assert len({e["body"] for e in envs}) == 4

    def test_tampered_body_fails_auth(self, drbg):
        ek = groupkey.derive_epoch_key("chess", 1, SECRET)
        env = groupkey.seal_epoch(ek, b"payload", drbg)
        env["body"] = env["body"][:-4] + "AAA="
        with pytest.raises(DecryptionError):
            groupkey.open_epoch(ek, env)

    def test_cross_epoch_key_cannot_open(self, drbg):
        sealed_under = groupkey.derive_epoch_key("chess", 1, SECRET)
        env = groupkey.seal_epoch(sealed_under, b"payload", drbg)
        env["epoch"] = 2  # lie about the epoch
        other = groupkey.derive_epoch_key("chess", 2, SECRET)
        with pytest.raises(DecryptionError):
            groupkey.open_epoch(other, env)

    def test_malformed_envelope(self):
        ek = groupkey.derive_epoch_key("chess", 1, SECRET)
        with pytest.raises(DecryptionError):
            groupkey.open_epoch(ek, {"suite": ek.suite})


class TestRing:
    def test_install_advances_epoch(self):
        ring = groupkey.GroupKeyRing("chess")
        assert ring.epoch == 0
        ring.install(1, SECRET)
        ring.install(2, OTHER)
        assert ring.epoch == 2
        assert ring.get(1).epoch == 1

    def test_backfill_keeps_numeric_order(self):
        ring = groupkey.GroupKeyRing("chess")
        ring.install(3, SECRET)
        ring.install(1, OTHER)
        assert ring.epoch == 3

    def test_history_trims_to_stale(self):
        ring = groupkey.GroupKeyRing("chess", history=2)
        for epoch in (1, 2, 3):
            ring.install(epoch, SECRET)
        assert len(ring) == 2
        with pytest.raises(StaleEpochError):
            ring.get(1)

    def test_newer_epoch_is_unknown_not_stale(self):
        ring = groupkey.GroupKeyRing("chess")
        ring.install(1, SECRET)
        with pytest.raises(UnknownEpochError):
            ring.get(5)

    def test_skipped_old_epoch_is_stale(self):
        """An epoch below the newest we hold was rotated out, not unknown."""
        ring = groupkey.GroupKeyRing("chess")
        ring.install(4, SECRET)
        with pytest.raises(StaleEpochError):
            ring.get(2)

    def test_taxonomy_counters(self):
        saved = obs.get_registry()
        registry = obs.set_registry(obs.Registry())
        try:
            ring = groupkey.GroupKeyRing("chess", history=1)
            ring.install(1, SECRET)
            ring.install(2, OTHER)
            with pytest.raises(StaleEpochError):
                ring.get(1)
            with pytest.raises(UnknownEpochError):
                ring.get(9)
            assert registry.count("crypto.groupkey.reject.stale") == 1
            assert registry.count("crypto.groupkey.reject.unknown") == 1
            assert registry.count("crypto.groupkey.trimmed") == 1
        finally:
            obs.set_registry(saved)

    def test_ring_open_roundtrip(self, drbg):
        ring = groupkey.GroupKeyRing("chess")
        ek = ring.install(1, SECRET)
        env = groupkey.seal_epoch(ek, b"payload", drbg)
        ring.install(2, OTHER)
        # older-but-retained epoch still opens
        assert ring.open(env) == b"payload"

    def test_ring_open_requires_epoch_field(self):
        ring = groupkey.GroupKeyRing("chess")
        ring.install(1, SECRET)
        with pytest.raises(DecryptionError):
            ring.open({"body": "AAAA", "nonce": "AAAA"})
