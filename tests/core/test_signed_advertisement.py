"""Type-preserving signed advertisements (ref [15]) and their validator."""

import pytest

from repro.core.credentials import issue_credential, self_signed_credential
from repro.core.signed_advertisement import (
    AdvertisementValidator,
    sign_advertisement,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import (
    CBIDMismatchError,
    CredentialError,
    TamperedAdvertisementError,
)
from repro.jxta.advertisements import PipeAdvertisement
from repro.jxta.ids import cbid_from_key, random_pipe_id
from repro.xmllib import parse, serialize
from tests.conftest import cached_keypair

ADMIN = cached_keypair(512, "admin")
BROKER = cached_keypair(512, "broker")
ALICE = cached_keypair(512, "client-alice")
MALLORY = cached_keypair(512, "client-mallory")

RNG = HmacDrbg(b"sa-tests")


@pytest.fixture()
def anchor():
    return self_signed_credential(ADMIN.private, ADMIN.public, "admin", 0.0, 1e9)


@pytest.fixture()
def broker_cred():
    return issue_credential(ADMIN.private, cbid_from_key(ADMIN.public), "admin",
                            BROKER.public, "B0", 0.0, 1e8)


@pytest.fixture()
def alice_chain(broker_cred):
    alice_cred = issue_credential(
        BROKER.private, cbid_from_key(BROKER.public), "B0",
        ALICE.public, "alice", 0.0, 1e7)
    return [alice_cred, broker_cred]


@pytest.fixture()
def mallory_chain(broker_cred):
    mallory_cred = issue_credential(
        BROKER.private, cbid_from_key(BROKER.public), "B0",
        MALLORY.public, "mallory", 0.0, 1e7)
    return [mallory_cred, broker_cred]


def _alice_adv():
    return PipeAdvertisement(
        peer_id=cbid_from_key(ALICE.public), pipe_id=random_pipe_id(RNG),
        group="g", address="peer:alice").to_element()


@pytest.fixture()
def validator(anchor):
    return AdvertisementValidator(anchor)


class TestSignAndValidate:
    def test_type_preserved_and_validates(self, alice_chain, validator):
        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        assert elem.tag == "PipeAdvertisement"
        result = validator.validate(elem, now=1.0)
        assert result.credential.subject_name == "alice"
        assert isinstance(result.advertisement, PipeAdvertisement)

    def test_survives_wire_roundtrip(self, alice_chain, validator):
        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        received = parse(serialize(elem))
        validator.validate(received, now=1.0)

    def test_empty_chain_rejected_at_sign(self):
        with pytest.raises(CredentialError):
            sign_advertisement(_alice_adv(), ALICE.private, [])


class TestRejection:
    def test_unsigned_rejected(self, validator):
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(_alice_adv(), now=1.0)

    def test_tampered_field_rejected(self, alice_chain, validator):
        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        elem.find("Address").text = "peer:attacker"
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(elem, now=1.0)

    def test_forged_peer_id_rejected(self, mallory_chain, validator):
        """Mallory (legitimately credentialed!) signs an advertisement
        claiming alice's peer id — the CBID binding kills it."""
        forged = sign_advertisement(_alice_adv(), MALLORY.private, mallory_chain)
        with pytest.raises(CBIDMismatchError):
            validator.validate(forged, now=1.0)

    def test_wrong_key_for_chain_rejected(self, alice_chain, validator):
        # signed with mallory's key but alice's chain: SignatureValue fails
        elem = sign_advertisement(_alice_adv(), MALLORY.private, alice_chain)
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(elem, now=1.0)

    def test_expired_credential_rejected(self, broker_cred, validator):
        short = issue_credential(
            BROKER.private, cbid_from_key(BROKER.public), "B0",
            ALICE.public, "alice", 0.0, 5.0)
        elem = sign_advertisement(_alice_adv(), ALICE.private, [short, broker_cred])
        validator.validate(elem, now=1.0)  # fine while fresh
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(elem, now=100.0)

    def test_self_signed_client_chain_rejected(self, validator):
        """A client cannot vouch for itself: chain must root at the admin."""
        self_cred = self_signed_credential(ALICE.private, ALICE.public,
                                           "alice", 0.0, 1e9)
        elem = sign_advertisement(_alice_adv(), ALICE.private, [self_cred])
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(elem, now=1.0)

    def test_missing_keyinfo_rejected(self, alice_chain, validator):
        from repro.dsig.transforms import find_signature

        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        sig = find_signature(elem)
        sig.children = [c for c in sig.children if c.tag != "KeyInfo"]
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(elem, now=1.0)


class TestCache:
    def test_cache_hits_on_repeat(self, alice_chain, anchor):
        validator = AdvertisementValidator(anchor)
        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        validator.validate(elem, now=1.0)
        validator.validate(elem, now=2.0)
        assert validator.cache_hits == 1
        assert validator.cache_misses == 1

    def test_modified_adv_misses_cache(self, alice_chain, anchor):
        validator = AdvertisementValidator(anchor)
        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        validator.validate(elem, now=1.0)
        tampered = elem.deep_copy()
        tampered.find("Address").text = "peer:evil"
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(tampered, now=1.0)

    def test_cached_entry_still_expires(self, broker_cred, anchor):
        validator = AdvertisementValidator(anchor)
        short = issue_credential(
            BROKER.private, cbid_from_key(BROKER.public), "B0",
            ALICE.public, "alice", 0.0, 5.0)
        elem = sign_advertisement(_alice_adv(), ALICE.private, [short, broker_cred])
        validator.validate(elem, now=1.0)
        with pytest.raises(TamperedAdvertisementError):
            validator.validate(elem, now=100.0)

    def test_invalidate(self, alice_chain, anchor):
        validator = AdvertisementValidator(anchor)
        elem = sign_advertisement(_alice_adv(), ALICE.private, alice_chain)
        validator.validate(elem, now=1.0)
        validator.invalidate()
        validator.validate(elem, now=1.0)
        assert validator.cache_misses == 2
