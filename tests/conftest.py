"""Shared fixtures.

RSA key generation is the only expensive operation in the suite, so keys
are deterministic and cached per process.  ``TEST_POLICY`` uses 512-bit
keys with v1.5 key-wrap (OAEP-SHA256 cannot fit in a 512-bit modulus),
which keeps full protocol runs fast; targeted tests exercise 1024/2048
and OAEP explicitly.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from functools import lru_cache

import pytest

from repro.core import Administrator, SecureBroker, SecureClientPeer, SecurityPolicy
from repro.core.keystore import Keystore
from repro.crypto import envelope
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import KeyPair, generate_keypair
from repro.overlay import Broker, ClientPeer, UserDatabase
from repro.sim import SimNetwork, VirtualClock

TEST_POLICY = SecurityPolicy(
    rsa_bits=512,
    envelope_wrap=envelope.WRAP_V15,
    credential_lifetime=3600.0,
).validate()


@lru_cache(maxsize=None)
def cached_keypair(bits: int, label: str) -> KeyPair:
    return generate_keypair(bits, drbg=HmacDrbg(f"test-key|{bits}|{label}".encode()))


#: each recorded client's received texts, keyed by its event bus
_INBOXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def record_texts(client) -> None:
    """Keep the text of every secure message ``client`` receives from now
    on; its event history keeps only each text's length."""
    texts = _INBOXES.setdefault(client.events, [])
    client.events.subscribe("secure_message_received",
                            lambda **kw: texts.append(kw["text"]))


def received_texts(client) -> list[str]:
    """The texts ``client`` received since :func:`record_texts`, in order."""
    return list(_INBOXES[client.events])


def run_concurrently(worker, n_threads: int | None = None,
                     timeout: float = 60.0) -> list[BaseException]:
    """Run ``worker(i)`` on more threads than cores at once; return errors.

    The interpreter switches threads every microsecond meanwhile (restored
    afterwards), so an unlocked read-modify-write interleaves within a
    few thousand calls.  Every thread must finish within ``timeout``.
    """
    n_threads = n_threads or max(8, 2 * (os.cpu_count() or 1))
    errors: list[BaseException] = []
    start = threading.Barrier(n_threads)

    def run(i: int) -> None:
        try:
            start.wait()
            worker(i)
        except BaseException as exc:  # reported to the test, not lost
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(n_threads)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads), "a worker did not finish"
    return errors


@pytest.fixture(scope="session")
def kp512() -> KeyPair:
    return cached_keypair(512, "a")


@pytest.fixture(scope="session")
def kp512_b() -> KeyPair:
    return cached_keypair(512, "b")


@pytest.fixture(scope="session")
def kp1024() -> KeyPair:
    return cached_keypair(1024, "a")


@pytest.fixture(scope="session")
def kp1024_b() -> KeyPair:
    return cached_keypair(1024, "b")


@pytest.fixture()
def drbg() -> HmacDrbg:
    return HmacDrbg(b"test-drbg")


@pytest.fixture()
def network() -> SimNetwork:
    return SimNetwork(clock=VirtualClock())


# ---------------------------------------------------------------------------
# Plain overlay world
# ---------------------------------------------------------------------------

class PlainWorld:
    """One broker + three plain clients; alice/bob share a group."""

    def __init__(self) -> None:
        self.net = SimNetwork(clock=VirtualClock())
        self.root = HmacDrbg(b"plain-world")
        self.db = UserDatabase(self.root.fork(b"db"))
        self.db.register_user("alice", "pw-a", {"students"})
        self.db.register_user("bob", "pw-b", {"students"})
        self.db.register_user("carol", "pw-c", {"teachers"})
        self.broker = Broker(self.net, "broker:0", self.db,
                             self.root.fork(b"br"), name="B0")
        self.alice = ClientPeer(self.net, "peer:alice", self.root.fork(b"al"),
                                name="alice-app")
        self.bob = ClientPeer(self.net, "peer:bob", self.root.fork(b"bo"),
                              name="bob-app")
        self.carol = ClientPeer(self.net, "peer:carol", self.root.fork(b"ca"),
                                name="carol-app")

    def join_all(self) -> None:
        for client, user, pw in ((self.alice, "alice", "pw-a"),
                                 (self.bob, "bob", "pw-b"),
                                 (self.carol, "carol", "pw-c")):
            client.connect("broker:0")
            client.login(user, pw)


@pytest.fixture()
def plain_world() -> PlainWorld:
    return PlainWorld()


@pytest.fixture()
def joined_plain_world() -> PlainWorld:
    world = PlainWorld()
    world.join_all()
    return world


# ---------------------------------------------------------------------------
# Secure overlay world
# ---------------------------------------------------------------------------

class SecureWorld:
    """Admin + secure broker + three secure clients (fast test policy)."""

    POLICY = TEST_POLICY

    def __init__(self) -> None:
        self.net = SimNetwork(clock=VirtualClock())
        self.root = HmacDrbg(b"secure-world")
        self.admin = Administrator(self.root.fork(b"admin"),
                                   keys=cached_keypair(512, "admin"))
        self.admin.register_user("alice", "pw-a", {"students"})
        self.admin.register_user("bob", "pw-b", {"students"})
        self.admin.register_user("carol", "pw-c", {"teachers"})
        self.broker = SecureBroker.create(
            self.net, "broker:0", self.admin, self.root.fork(b"br"),
            name="B0", policy=self.POLICY, keys=cached_keypair(512, "broker"))
        self.alice = self._client("alice", b"al")
        self.bob = self._client("bob", b"bo")
        self.carol = self._client("carol", b"ca")

    def _client(self, name: str, tag: bytes) -> SecureClientPeer:
        client = SecureClientPeer(
            self.net, f"peer:{name}", self.root.fork(tag),
            self.admin.credential, name=f"{name}-app", policy=self.POLICY,
            keystore=Keystore(cached_keypair(512, f"client-{name}")))
        record_texts(client)
        return client

    def join_all(self) -> None:
        for client, user, pw in ((self.alice, "alice", "pw-a"),
                                 (self.bob, "bob", "pw-b"),
                                 (self.carol, "carol", "pw-c")):
            client.secure_connect("broker:0")
            client.secure_login(user, pw)


#: TEST_POLICY with broker-mediated group fan-out switched on
CAST_POLICY = TEST_POLICY.with_(enable_group_cast=True)


class CastWorld(SecureWorld):
    """SecureWorld whose brokers and clients run the group-cast path."""

    POLICY = CAST_POLICY


@pytest.fixture()
def secure_world() -> SecureWorld:
    return SecureWorld()


@pytest.fixture()
def joined_secure_world() -> SecureWorld:
    world = SecureWorld()
    world.join_all()
    return world


@pytest.fixture()
def cast_world() -> CastWorld:
    world = CastWorld()
    world.join_all()
    return world
