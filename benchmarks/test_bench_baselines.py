"""A4 — stateless secure primitives vs TLS channel vs CBJX."""

from __future__ import annotations

import pytest

from repro.bench import baseline_comparison, fixtures, format_baselines
from repro.bench.tls_cbjx import CbjxEchoPair, TlsClientDriver, TlsEchoServer
from repro.crypto.drbg import HmacDrbg
from benchmarks.conftest import BENCH_POLICY

PAYLOAD = b"y" * 1_000


def test_bench_tls_handshake(benchmark):
    """The negotiation cost the paper's stateless design avoids (§4.3)."""
    net = fixtures.fresh_network()
    keys = fixtures.cached_keypair(1024, "tls-server")
    TlsEchoServer(net, "srv", keys, HmacDrbg(b"bench-tls-s"))
    counter = [0]

    def run():
        counter[0] += 1
        driver = TlsClientDriver(net, f"cli{counter[0]}", "srv",
                                 HmacDrbg(b"bench-tls-c%d" % counter[0]))
        driver.handshake()

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_bench_tls_record(benchmark):
    net = fixtures.fresh_network()
    keys = fixtures.cached_keypair(1024, "tls-server")
    TlsEchoServer(net, "srv", keys, HmacDrbg(b"bench-tls-s2"))
    driver = TlsClientDriver(net, "cli", "srv", HmacDrbg(b"bench-tls-c2"))
    driver.handshake()
    benchmark(lambda: driver.echo(PAYLOAD))


def test_bench_cbjx_message(benchmark):
    net = fixtures.fresh_network()
    pair = CbjxEchoPair(net, "a", "b",
                        fixtures.cached_keypair(1024, "cbjx-a"),
                        fixtures.cached_keypair(1024, "cbjx-b"),
                        HmacDrbg(b"bench-cbjx"))
    benchmark(lambda: pair.send_a_to_b(PAYLOAD))


def test_bench_stateless_secure_message(benchmark):
    net, admin, broker, clients = fixtures.build_secure_world(
        n_clients=2, policy=BENCH_POLICY, seed=b"bench-a4-stateless",
        joined=True)
    alice, bob = clients
    alice.secure_msg_peer(str(bob.peer_id), "bench", "warmup")
    benchmark(
        lambda: alice.secure_msg_peer(str(bob.peer_id), "bench",
                                      PAYLOAD.decode()))


def test_a4_crossover_report(capsys):
    """TLS amortizes its handshake: for long conversations it must beat
    the stateless scheme; for a single message the stateless scheme is
    competitive (no negotiation round trips)."""
    points = baseline_comparison(message_counts=(1, 5, 20),
                                 policy=BENCH_POLICY)
    with capsys.disabled():
        print()
        print(format_baselines(points, size_bytes=1_000))
    per_msg_stateless = points[-1].stateless_s / points[-1].n_messages
    per_msg_tls = points[-1].tls_s / points[-1].n_messages
    assert per_msg_tls < per_msg_stateless, (
        "TLS records must be cheaper per message once the channel exists")
