"""The shared LRU signature-verification cache."""

import pytest

from repro import obs
from repro.crypto import signing, sigcache
from repro.errors import InvalidSignatureError
from tests.conftest import cached_keypair


@pytest.fixture()
def registry():
    registry = obs.Registry()
    saved = obs.set_registry(registry)
    yield registry
    obs.set_registry(saved)


@pytest.fixture()
def fresh_cache():
    cache = sigcache.SignatureCache(max_entries=4)
    saved = sigcache.set_sig_cache(cache)
    yield cache
    sigcache.set_sig_cache(saved)


def _signed(label="sig-a", message=b"message"):
    kp = cached_keypair(512, label)
    return kp, message, signing.sign(kp.private, message)


class TestSignatureCache:
    def test_second_verify_is_a_hit(self, registry, fresh_cache):
        kp, message, signature = _signed()
        for _ in range(2):
            fresh_cache.verify(kp.public, message, signature,
                               signing.DEFAULT_SCHEME)
        assert registry.count("crypto.sigcache.misses") == 1
        assert registry.count("crypto.sigcache.hits") == 1
        # the expensive exponentiation ran exactly once
        assert registry.count("crypto.rsa.verify_op") == 1

    def test_bad_signature_raises_and_is_never_cached(self, registry,
                                                      fresh_cache):
        kp, message, signature = _signed()
        forged = bytes([signature[0] ^ 1]) + signature[1:]
        for _ in range(2):
            with pytest.raises(InvalidSignatureError):
                fresh_cache.verify(kp.public, message, forged,
                                   signing.DEFAULT_SCHEME)
        assert len(fresh_cache) == 0
        assert registry.count("crypto.sigcache.misses") == 2

    def test_key_includes_message_and_key(self, fresh_cache):
        kp, message, signature = _signed()
        other = cached_keypair(512, "sig-b")
        fresh_cache.verify(kp.public, message, signature,
                           signing.DEFAULT_SCHEME)
        with pytest.raises(InvalidSignatureError):
            fresh_cache.verify(other.public, message, signature,
                               signing.DEFAULT_SCHEME)
        with pytest.raises(InvalidSignatureError):
            fresh_cache.verify(kp.public, b"other message", signature,
                               signing.DEFAULT_SCHEME)

    def test_lru_eviction_bounded(self, registry, fresh_cache):
        kp = cached_keypair(512, "sig-a")
        for i in range(6):
            message = b"m%d" % i
            fresh_cache.verify(kp.public, message,
                               signing.sign(kp.private, message),
                               signing.DEFAULT_SCHEME)
        assert len(fresh_cache) == 4
        assert registry.count("crypto.sigcache.evictions") == 2

    def test_invalidate_flushes(self, registry, fresh_cache):
        kp, message, signature = _signed()
        fresh_cache.verify(kp.public, message, signature,
                           signing.DEFAULT_SCHEME)
        fresh_cache.invalidate()
        fresh_cache.verify(kp.public, message, signature,
                           signing.DEFAULT_SCHEME)
        assert registry.count("crypto.sigcache.misses") == 2
        assert registry.count("crypto.sigcache.hits") == 0

    def test_cached_verify_uses_process_default(self, registry, fresh_cache):
        kp, message, signature = _signed()
        sigcache.cached_verify(kp.public, message, signature,
                               signing.DEFAULT_SCHEME)
        sigcache.cached_verify(kp.public, message, signature,
                               signing.DEFAULT_SCHEME)
        assert registry.count("crypto.sigcache.hits") == 1
