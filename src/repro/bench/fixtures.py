"""Shared benchmark fixtures: cached keys and standard topologies.

RSA key generation dominates setup time (seconds per 1024-bit key), so
the harness generates each (bits, label) key exactly once per process
from a deterministic seed and reuses it across experiments.  This only
caches *setup* material — everything measured (signing, sealing, message
flow) runs live.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.admin import Administrator
from repro.core.keystore import Keystore
from repro.core.policy import DEFAULT_POLICY, SecurityPolicy
from repro.core.secure_broker import SecureBroker
from repro.core.secure_client import SecureClientPeer
from repro.crypto import envelope, signing
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import KeyPair, generate_keypair
from repro.overlay.broker import Broker
from repro.overlay.client import ClientPeer
from repro.overlay.database import UserDatabase
from repro.sim.latency import LAN_2009, LinkModel
from repro.sim.network import SimNetwork

#: the bench experiments' policy: small keys + v1.5 wrap and signatures.
#: RSA *counts* are what they compare, and those do not depend on the
#: modulus size.  Both fast paths are on (the defaults); the paper's
#: stateless path is ``experiments.stateless(BENCH_POLICY)``.
BENCH_POLICY = SecurityPolicy(
    rsa_bits=512,
    envelope_wrap=envelope.WRAP_V15,
    signature_scheme=signing.SCHEME_V15,
).validate()


@lru_cache(maxsize=None)
def cached_keypair(bits: int, label: str) -> KeyPair:
    """A deterministic key pair, generated once per process."""
    return generate_keypair(bits, drbg=HmacDrbg(f"bench-key|{bits}|{label}".encode()))


def fresh_network(link: LinkModel = LAN_2009) -> SimNetwork:
    return SimNetwork(link=link)


def make_client_keystore(bits: int, label: str) -> Keystore:
    """A keystore around a cached key (fresh trust state each call)."""
    return Keystore(cached_keypair(bits, label))


def build_plain_world(n_clients: int = 2, link: LinkModel = LAN_2009,
                      seed: bytes = b"bench-plain"):
    """One broker + n plain clients, users provisioned, nobody joined yet."""
    net = fresh_network(link)
    root = HmacDrbg(seed)
    database = UserDatabase(root.fork(b"db"))
    broker = Broker(net, "broker:0", database, root.fork(b"broker"), name="B0")
    clients = []
    for i in range(n_clients):
        database.register_user(f"user{i}", f"pw{i}", {"bench"})
        clients.append(ClientPeer(net, f"peer:{i}", root.fork(b"cl%d" % i),
                                  name=f"user{i}-app"))
    return net, broker, clients


def build_secure_world(n_clients: int = 2, link: LinkModel = LAN_2009,
                       policy: SecurityPolicy = DEFAULT_POLICY,
                       seed: bytes = b"bench-secure", joined: bool = False):
    """One secure broker + n secure clients (cached keys), optionally joined."""
    net = fresh_network(link)
    root = HmacDrbg(seed)
    admin = Administrator(root.fork(b"admin"), bits=policy.rsa_bits,
                          keys=cached_keypair(policy.rsa_bits, "admin"))
    broker = SecureBroker.create(
        net, "broker:0", admin, root.fork(b"broker"), name="B0",
        policy=policy, keys=cached_keypair(policy.rsa_bits, "broker"))
    clients = []
    for i in range(n_clients):
        admin.register_user(f"user{i}", f"pw{i}", {"bench"})
        clients.append(SecureClientPeer(
            net, f"peer:{i}", root.fork(b"cl%d" % i), admin.credential,
            name=f"user{i}-app", policy=policy,
            keystore=make_client_keystore(policy.rsa_bits, f"client{i}")))
    if joined:
        for i, client in enumerate(clients):
            client.secure_connect("broker:0")
            client.secure_login(f"user{i}", f"pw{i}")
    return net, admin, broker, clients


def build_federated_secure_world(n_brokers: int, n_clients: int = 2,
                                 link: LinkModel = LAN_2009,
                                 policy: SecurityPolicy = DEFAULT_POLICY,
                                 seed: bytes = b"bench-fed-secure",
                                 joined: bool = True):
    """B linked secure brokers under one admin + N clients round-robin.

    Returns ``(net, admin, brokers, clients)``; client ``i`` homes on
    broker ``i % n_brokers`` and is logged in when ``joined``.
    """
    net = fresh_network(link)
    root = HmacDrbg(seed + b"|%d" % n_brokers)
    admin = Administrator(root.fork(b"admin"), bits=policy.rsa_bits,
                          keys=cached_keypair(policy.rsa_bits, "admin"))
    brokers = [SecureBroker.create(
        net, f"broker:{i}", admin, root.fork(b"br%d" % i), name=f"B{i}",
        policy=policy, keys=cached_keypair(policy.rsa_bits, f"broker{i}"))
        for i in range(n_brokers)]
    for other in brokers[1:]:
        brokers[0].link_broker(other)
    clients = []
    for i in range(n_clients):
        admin.register_user(f"user{i}", f"pw{i}", {"bench"})
        client = SecureClientPeer(
            net, f"peer:{i}", root.fork(b"cl%d" % i), admin.credential,
            name=f"user{i}-app", policy=policy,
            keystore=make_client_keystore(policy.rsa_bits, f"client{i}"))
        if joined:
            client.secure_connect(brokers[i % n_brokers].address)
            client.secure_login(f"user{i}", f"pw{i}")
        clients.append(client)
    return net, admin, brokers, clients


def join_plain(clients, usernames=None) -> None:
    for i, client in enumerate(clients):
        client.connect("broker:0")
        client.login(f"user{i}", f"pw{i}")
