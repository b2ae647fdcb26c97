"""Keystores, the administrator, and the sid store."""

import itertools

import pytest

from repro.core import Administrator
from repro.core.keystore import Keystore
from repro.core.session import DEFAULT_SID_LIFETIME, MAX_OUTSTANDING_SIDS, SidStore
from repro.crypto.drbg import HmacDrbg
from repro.errors import CredentialError, ReplayError
from repro.jxta.ids import cbid_from_key
from repro.sim import VirtualClock
from tests.conftest import cached_keypair, run_concurrently


@pytest.fixture()
def admin():
    return Administrator(HmacDrbg(b"adm"), keys=cached_keypair(512, "admin"))


class TestKeystore:
    def test_cbid_derived(self, kp512):
        ks = Keystore(kp512)
        assert ks.cbid == cbid_from_key(kp512.public)

    def test_credential_requires_chain(self, kp512):
        with pytest.raises(CredentialError):
            _ = Keystore(kp512).credential

    def test_chain_leaf_must_match_key(self, kp512, admin):
        ks = Keystore(kp512)
        with pytest.raises(CredentialError):
            ks.install_chain([admin.credential])  # admin's cred, our key

    def test_anchor_must_be_self_signed(self, kp512, admin):
        ks = Keystore(kp512)
        broker_cred = admin.issue_broker_credential(
            cached_keypair(512, "broker").public, "B0")
        with pytest.raises(CredentialError):
            ks.install_anchor(broker_cred)
        with pytest.raises(CredentialError):
            ks.require_anchor()

    def test_peer_cache(self, kp512, admin):
        ks = Keystore(kp512)
        cred = admin.credential
        ks.remember_peer(cred)
        assert ks.recall_peer(str(cred.subject_id)) is cred
        assert ks.validated_count == 1
        ks.forget_peer(str(cred.subject_id))
        assert ks.recall_peer(str(cred.subject_id)) is None


class TestAdministrator:
    def test_self_signed_anchor(self, admin):
        cred = admin.credential
        assert cred.self_signed
        cred.verify(admin.public_key, now=0.0)

    def test_broker_credential_chain(self, admin):
        broker_keys = cached_keypair(512, "broker")
        cred = admin.issue_broker_credential(broker_keys.public, "B0")
        from repro.core.credentials import validate_chain

        assert validate_chain([cred], admin.credential, now=1.0).subject_name == "B0"

    def test_register_user_provisions_database(self, admin):
        admin.register_user("zoe", "pw", {"g"})
        assert admin.database.check_credentials("zoe", "pw")
        assert admin.database.groups_of("zoe") == {"g"}

    def test_deterministic_given_keys_and_seed(self):
        a = Administrator(HmacDrbg(b"adm"), keys=cached_keypair(512, "admin"))
        b = Administrator(HmacDrbg(b"adm"), keys=cached_keypair(512, "admin"))
        assert a.keystore.cbid == b.keystore.cbid


class TestSidStore:
    @pytest.fixture()
    def store(self):
        clock = VirtualClock()
        return clock, SidStore(clock, HmacDrbg(b"sid"), lifetime=100.0)

    def test_issue_and_consume_once(self, store):
        _, sids = store
        sid = sids.issue("peer:a")
        assert sids.outstanding == 1
        sids.consume(sid)
        assert sids.outstanding == 0
        with pytest.raises(ReplayError):
            sids.consume(sid)
        assert sids.replays_blocked == 1

    def test_unknown_sid_rejected(self, store):
        _, sids = store
        with pytest.raises(ReplayError):
            sids.consume("ffff" * 16)

    def test_sids_unpredictable_length(self, store):
        _, sids = store
        sid = sids.issue("peer:a")
        assert len(sid) == 64  # 32 bytes hex: "sufficiently long"

    def test_sids_unique(self, store):
        _, sids = store
        assert len({sids.issue("x") for _ in range(50)}) == 50
        assert sids.issued_total == 50

    def test_expired_sid_rejected(self, store):
        clock, sids = store
        sid = sids.issue("peer:a")
        clock.advance(101.0)
        with pytest.raises(ReplayError):
            sids.consume(sid)

    def test_sweep(self, store):
        clock, sids = store
        sids.issue("a")
        sids.issue("b")
        clock.advance(101.0)
        fresh = sids.issue("c")
        assert sids.sweep() == 2
        assert sids.outstanding == 1
        sids.consume(fresh)

    def test_count_cap_evicts_the_oldest(self):
        """A connect flood inside one lifetime: nothing expires, so only
        the count cap bounds the store, and an evicted sid fails exactly
        like an expired one."""
        clock = VirtualClock()
        sids = SidStore(clock, HmacDrbg(b"sid-flood"))
        issued = [sids.issue("peer:flood") for _ in range(MAX_OUTSTANDING_SIDS + 2)]
        clock.advance(DEFAULT_SID_LIFETIME / 2)
        assert sids.sweep() == 0
        assert sids.outstanding == MAX_OUTSTANDING_SIDS
        assert sids.issued_total == MAX_OUTSTANDING_SIDS + 2
        for evicted in issued[:2]:
            with pytest.raises(ReplayError):
                sids.consume(evicted)
        assert sids.replays_blocked == 2
        sids.consume(issued[2])
        sids.consume(issued[-1])
        assert sids.outstanding == MAX_OUTSTANDING_SIDS - 2

    def test_concurrent_connects_sweep_and_issue_safely(self):
        """``fn_secure_connect`` runs ``sweep()`` then ``issue()`` on
        whichever handler thread took the request.  Sids here expire at
        birth, so every sweep has entries to pop while others insert; a
        counter stands in for the DRBG so the store's own steps dominate."""

        class CountingDrbg:
            def __init__(self):
                self._next = itertools.count()

            def generate(self, n):
                return next(self._next).to_bytes(n, "big")

        sids = SidStore(VirtualClock(), CountingDrbg(), lifetime=-1.0)
        calls = 3000
        issued: list[str] = []

        def worker(_i):
            for _ in range(calls):
                sids.sweep()
                issued.append(sids.issue("peer:x"))

        n_threads = 16
        assert run_concurrently(worker, n_threads) == []
        assert sids.issued_total == calls * n_threads
        assert len(set(issued)) == len(issued) == calls * n_threads
        sids.sweep()
        assert sids.outstanding == 0
