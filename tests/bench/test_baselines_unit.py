"""Unit tests for the network-driven TLS/CBJX baseline drivers."""

import pytest

from repro.bench.tls_cbjx import CbjxEchoPair, TlsClientDriver, TlsEchoServer
from repro.crypto.drbg import HmacDrbg
from repro.errors import TransportError
from repro.sim import SimNetwork, VirtualClock
from tests.conftest import cached_keypair


@pytest.fixture()
def net():
    return SimNetwork(clock=VirtualClock())


class TestTlsDriver:
    def test_handshake_and_echo(self, net, kp1024):
        TlsEchoServer(net, "srv", kp1024, HmacDrbg(b"s"))
        driver = TlsClientDriver(net, "cli", "srv", HmacDrbg(b"c"))
        driver.handshake()
        assert driver.echo(b"payload") == b"payload"
        assert driver.echo(b"second") == b"second"  # sequence advances

    def test_echo_before_handshake_rejected(self, net, kp1024):
        TlsEchoServer(net, "srv", kp1024, HmacDrbg(b"s"))
        driver = TlsClientDriver(net, "cli", "srv", HmacDrbg(b"c"))
        with pytest.raises(TransportError):
            driver.echo(b"too early")

    def test_handshake_charges_network_time(self, net, kp1024):
        TlsEchoServer(net, "srv", kp1024, HmacDrbg(b"s"))
        driver = TlsClientDriver(net, "cli", "srv", HmacDrbg(b"c"))
        net0 = net.clock.network_time
        driver.handshake()
        # 2 round trips = 4 one-way transits minimum
        assert net.clock.network_time - net0 >= 4 * net.default_link.latency_s

    def test_multiple_clients_one_server(self, net, kp1024):
        TlsEchoServer(net, "srv", kp1024, HmacDrbg(b"s"))
        a = TlsClientDriver(net, "cli-a", "srv", HmacDrbg(b"a"))
        b = TlsClientDriver(net, "cli-b", "srv", HmacDrbg(b"b"))
        a.handshake()
        b.handshake()
        assert a.echo(b"from-a") == b"from-a"
        assert b.echo(b"from-b") == b"from-b"


class TestCbjxPair:
    def test_roundtrip(self, net, kp512, kp512_b):
        pair = CbjxEchoPair(net, "a", "b", kp512, kp512_b, HmacDrbg(b"p"))
        assert pair.send_a_to_b(b"hello")
        assert pair.received_b == [b"hello"]

    def test_multiple_messages(self, net, kp512, kp512_b):
        pair = CbjxEchoPair(net, "a", "b", kp512, kp512_b, HmacDrbg(b"p"))
        for i in range(5):
            pair.send_a_to_b(b"msg%d" % i)
        assert len(pair.received_b) == 5
