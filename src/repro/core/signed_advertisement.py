"""Type-preserving signed advertisements (refs [15], [16] of the paper).

The original advertisement keeps its root element type; the XMLdsig
<Signature> is *embedded* (enveloped), and <KeyInfo> carries the signer's
credential chain.  This single mechanism gives the scheme:

* advertisement **integrity** and **source authenticity** (§2.3 threat 2),
* **transparent key transport**: the recipient of any signed
  advertisement learns the signer's public key *and* who vouches for it,
  with no extra key-distribution protocol (§4.1),
* **CBID binding**: the advertisement's PeerId must be the CBID of the
  credential's key, so nobody can sign advertisements for someone else's
  id.

Validation results are cached per advertisement identity because the
cache stores the *exact canonical bytes* that validated — a changed
advertisement misses the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.core.credentials import (
    Credential,
    chain_from_elements,
    validate_chain,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import PrivateKey
from repro.crypto.sha2 import sha256
from repro.dsig import sign_element, verify_element
from repro.dsig.templates import KEY_INFO_TAG
from repro.errors import (
    CBIDMismatchError,
    CredentialError,
    InvalidSignatureError,
    TamperedAdvertisementError,
    XMLDsigError,
    XMLError,
)
from repro.jxta.advertisements import Advertisement
from repro.xmllib import Element, canonicalize

CHAIN_TAG = "CredentialChain"


def sign_advertisement(element: Element, signer_key: PrivateKey,
                       chain: list[Credential],
                       sig_alg: str = "rsa-pss-sha256",
                       drbg: HmacDrbg | None = None) -> Element:
    """Sign an advertisement in place, embedding the credential chain.

    ``chain`` is leaf-first; the leaf credential's key must match
    ``signer_key``.  Returns the same element for chaining.
    """
    if not chain:
        raise CredentialError("cannot sign without a credential chain")
    keyinfo = Element(KEY_INFO_TAG)
    holder = keyinfo.add(CHAIN_TAG)
    for cred in chain:
        holder.append(cred.to_element())
    return sign_element(element, signer_key, keyinfo=keyinfo,
                        sig_alg=sig_alg, drbg=drbg)


@dataclass(frozen=True)
class ValidatedAdvertisement:
    """Outcome of a successful validation."""

    advertisement: Advertisement
    credential: Credential          # the signer's (leaf) credential
    chain: list[Credential]
    element: Element                # the signed document as validated


class AdvertisementValidator:
    """Validates signed advertisements against a trust anchor, with cache.

    An optional :class:`repro.core.revocation.RevocationChecker` is
    consulted on every validation (including cache hits — revocation can
    arrive after an advertisement was first validated).
    """

    def __init__(self, trust_anchor: Credential, revocation=None,
                 max_entries: int = 256) -> None:
        self.trust_anchor = trust_anchor
        self.revocation = revocation
        self.max_entries = max_entries
        self._cache: OrderedDict[bytes, ValidatedAdvertisement] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def validate(self, element: Element, now: float) -> ValidatedAdvertisement:
        """Full validation; raises :class:`TamperedAdvertisementError`,
        :class:`CredentialError` or :class:`CBIDMismatchError` on failure.

        Checks, in order:

        1. XMLdsig structure + reference digest + signature value under
           the leaf credential key,
        2. credential chain up to the administrator anchor (incl. CBID
           binding and validity windows of every link),
        3. the advertisement's PeerId equals the leaf credential subject.
        """
        digest = sha256(canonicalize(element))
        hit = self._cache.get(digest)
        if hit is not None:
            # Expiry and revocation must still be honoured on hits.
            try:
                hit.credential.check_validity_window(now)
            except CredentialError:
                del self._cache[digest]
            else:
                if self.revocation is not None:
                    self.revocation.check_chain(hit.chain)
                self._cache.move_to_end(digest)
                self.cache_hits += 1
                return hit
        self.cache_misses += 1

        try:
            chain = self._extract_chain(element)
            leaf = validate_chain(chain, self.trust_anchor, now)
            verify_element(element, leaf.public_key)
        except (XMLDsigError, InvalidSignatureError, XMLError,
                CredentialError) as exc:
            raise TamperedAdvertisementError(
                f"<{element.tag}> failed signature validation: {exc}") from exc

        if self.revocation is not None:
            self.revocation.check_chain(chain)

        parsed = Advertisement.from_element(element)
        if str(parsed.peer_id) != str(leaf.subject_id):
            raise CBIDMismatchError(
                f"advertisement PeerId {parsed.peer_id} does not match the "
                f"signer credential subject {leaf.subject_id}")

        result = ValidatedAdvertisement(
            advertisement=parsed, credential=leaf, chain=chain,
            element=element.deep_copy())
        self._cache[digest] = result
        self._cache.move_to_end(digest)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.cache_evictions += 1
            obs.get_registry().incr("core.adv_cache.evictions")
        return result

    def _extract_chain(self, element: Element) -> list[Credential]:
        from repro.dsig.transforms import find_signature

        signature = find_signature(element)
        keyinfo = signature.find(KEY_INFO_TAG)
        if keyinfo is None:
            raise CredentialError("signed advertisement carries no KeyInfo")
        holder = keyinfo.find(CHAIN_TAG)
        if holder is None or not holder.children:
            raise CredentialError("KeyInfo carries no credential chain")
        return chain_from_elements(list(holder.children))

    def invalidate(self) -> None:
        """Flush all trust-derived caches (here *and* the shared sigcache)."""
        from repro.crypto import sigcache

        self._cache.clear()
        sigcache.get_sig_cache().invalidate()
