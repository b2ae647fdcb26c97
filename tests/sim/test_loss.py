"""Lossy links: failure injection through the link model."""

import pytest

from repro import obs
from repro.crypto.drbg import HmacDrbg
from repro.errors import NetworkError
from repro.sim import LinkModel, SimNetwork, VirtualClock


def _lossy_net(loss: float, seed: bytes = b"loss") -> SimNetwork:
    rng = HmacDrbg(seed)
    return SimNetwork(clock=VirtualClock(),
                      link=LinkModel(latency_s=0.001, bandwidth_bps=0,
                                     loss=loss),
                      loss_draw=rng.uniform)


class TestDatagramLoss:
    def test_total_loss_drops_everything(self):
        net = _lossy_net(1.0)
        seen = []
        net.register("dst", lambda f: seen.append(f))
        dropped = obs.get_registry().count("net.frames_dropped")
        for _ in range(10):
            assert not net.send("src", "dst", b"x")
        assert seen == []
        assert obs.get_registry().count("net.frames_dropped") - dropped == 10

    def test_no_loss_delivers_everything(self):
        net = _lossy_net(0.0)
        seen = []
        net.register("dst", lambda f: seen.append(f))
        for _ in range(10):
            assert net.send("src", "dst", b"x")
        assert len(seen) == 10

    def test_partial_loss_statistics(self):
        net = _lossy_net(0.5, seed=b"half")
        net.register("dst", lambda f: None)
        delivered = sum(net.send("src", "dst", b"x") for _ in range(200))
        assert 60 < delivered < 140  # ~100 expected

    def test_lost_frame_costs_no_network_time(self):
        net = _lossy_net(1.0)
        net.register("dst", lambda f: None)
        net.send("src", "dst", b"x")
        assert net.clock.network_time == 0.0

    def test_deterministic_given_seed(self):
        outcomes_a = []
        net = _lossy_net(0.5, seed=b"det")
        net.register("dst", lambda f: None)
        for _ in range(50):
            outcomes_a.append(net.send("src", "dst", b"x"))
        outcomes_b = []
        net = _lossy_net(0.5, seed=b"det")
        net.register("dst", lambda f: None)
        for _ in range(50):
            outcomes_b.append(net.send("src", "dst", b"x"))
        assert outcomes_a == outcomes_b


class TestRequestLoss:
    def test_lost_request_raises(self):
        net = _lossy_net(1.0)
        net.register("server", lambda f: b"resp")
        with pytest.raises(NetworkError, match="lost in transit"):
            net.request("client", "server", b"q")


class TestSecureMessagingUnderLoss:
    def test_group_send_reports_partial_delivery(self):
        """secureMsgPeerGroup on a lossy LAN: best-effort semantics mean
        the call reports how many sends got through."""
        from repro.bench import fixtures
        from repro.core.policy import SecurityPolicy
        from repro.crypto import envelope

        policy = SecurityPolicy(rsa_bits=512,
                                envelope_wrap=envelope.WRAP_V15).validate()
        net, admin, broker, clients = fixtures.build_secure_world(
            n_clients=4, policy=policy, seed=b"lossy", joined=True)
        rng = HmacDrbg(b"loss-late")
        net.default_link = LinkModel(latency_s=0.001, bandwidth_bps=0, loss=0.5)
        net._loss_draw = rng.uniform
        sender = clients[0]
        from repro.errors import NotConnectedError

        try:
            delivered = sender.secure_msg_peer_group("bench", "lossy hello")
        except (NetworkError, NotConnectedError):
            delivered = -1  # broker RPC itself got unlucky; acceptable
        assert -1 <= delivered <= 3
