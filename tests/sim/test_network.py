"""Simulated network: delivery, links, taps, interceptors, stats."""

from dataclasses import replace

import pytest

from repro import obs
from repro.errors import NetworkError
from repro.sim import LinkModel, SimNetwork, VirtualClock
from repro.sim.network import Frame


@pytest.fixture()
def net():
    return SimNetwork(clock=VirtualClock())


class TestRegistration:
    def test_duplicate_address_rejected(self, net):
        net.register("a", lambda f: None)
        with pytest.raises(NetworkError):
            net.register("a", lambda f: None)

    def test_unregister(self, net):
        net.register("a", lambda f: None)
        net.unregister("a")
        assert not net.is_registered("a")
        net.register("a", lambda f: None)  # reusable


class TestSend:
    def test_delivers_payload(self, net):
        seen = []
        net.register("dst", lambda f: seen.append(f))
        net.register("src", lambda f: None)
        assert net.send("src", "dst", b"hello")
        assert seen[0].payload == b"hello"
        assert seen[0].src == "src"

    def test_unknown_destination_raises(self, net):
        with pytest.raises(NetworkError):
            net.send("src", "nowhere", b"x")

    def test_clock_advances_by_transit(self, net):
        net.register("dst", lambda f: None)
        t0 = net.clock.now
        net.send("src", "dst", b"x" * 1000)
        expected = net.default_link.transit_time(1000)
        assert net.clock.now - t0 == pytest.approx(expected)


class TestRequest:
    def test_round_trip(self, net):
        net.register("server", lambda f: f.payload.upper())
        net.register("client", lambda f: None)
        assert net.request("client", "server", b"abc") == b"ABC"

    def test_no_answer_raises(self, net):
        net.register("server", lambda f: None)
        with pytest.raises(NetworkError):
            net.request("client", "server", b"abc")

    def test_handler_cpu_charged(self, net):
        def busy(frame):
            sum(range(20000))
            return b"done"

        net.register("server", busy)
        cpu0 = net.clock.cpu_time
        net.request("client", "server", b"go")
        assert net.clock.cpu_time > cpu0

    def test_both_directions_cost_network_time(self, net):
        net.register("server", lambda f: b"r" * 5000)
        net0 = net.clock.network_time
        net.request("client", "server", b"q")
        one_way_small = net.default_link.transit_time(1)
        assert net.clock.network_time - net0 > 2 * one_way_small * 0.9


class TestLinks:
    def test_per_pair_override(self, net):
        slow = LinkModel(latency_s=1.0, bandwidth_bps=0)
        net.set_link("a", "b", slow)
        assert net.link_for("a", "b") is slow
        assert net.link_for("b", "a") is slow  # symmetric by default
        assert net.link_for("a", "c") is net.default_link

    def test_asymmetric_override(self, net):
        slow = LinkModel(latency_s=1.0)
        net.set_link("a", "b", slow, symmetric=False)
        assert net.link_for("b", "a") is net.default_link


class TestTaps:
    def test_tap_sees_all_frames(self, net):
        frames = []

        class Tap:
            def observe(self, frame):
                frames.append(frame)

        net.add_tap(Tap())
        net.register("dst", lambda f: None)
        net.send("src", "dst", b"payload-1")
        net.send("src", "dst", b"payload-2")
        assert [f.payload for f in frames] == [b"payload-1", b"payload-2"]

    def test_tap_removal(self, net):
        frames = []

        class Tap:
            def observe(self, frame):
                frames.append(frame)

        tap = Tap()
        net.add_tap(tap)
        net.register("dst", lambda f: None)
        net.send("src", "dst", b"1")
        net.remove_tap(tap)
        net.send("src", "dst", b"2")
        assert len(frames) == 1


class TestInterceptors:
    def test_drop(self, net):
        seen = []
        net.register("dst", lambda f: seen.append(f))
        net.add_interceptor(lambda f: None)
        assert not net.send("src", "dst", b"x")
        assert seen == []

    def test_rewrite_payload(self, net):
        seen = []
        net.register("dst", lambda f: seen.append(f))
        net.add_interceptor(lambda f: replace(f, payload=b"evil"))
        net.send("src", "dst", b"good")
        assert seen[0].payload == b"evil"

    def test_redirect(self, net):
        good, evil = [], []
        net.register("dst", lambda f: good.append(f))
        net.register("attacker", lambda f: evil.append(f))
        net.add_interceptor(
            lambda f: replace(f, dst="attacker") if f.dst == "dst" else f)
        net.send("src", "dst", b"secret")
        assert good == [] and len(evil) == 1

    def test_dropped_request_raises(self, net):
        net.register("server", lambda f: b"resp")
        net.add_interceptor(lambda f: None)
        with pytest.raises(NetworkError):
            net.request("client", "server", b"q")


@pytest.fixture()
def registry():
    saved = obs.get_registry()
    yield obs.set_registry(obs.Registry())
    obs.set_registry(saved)


class TestStats:
    def test_counters(self, net, registry):
        net.register("dst", lambda f: None)
        net.send("src", "dst", b"12345")
        assert registry.count("net.frames_sent") == 1
        assert registry.count("net.frames_delivered") == 1
        assert registry.count("net.bytes_sent") == 5

    def test_drop_counted(self, net, registry):
        net.register("dst", lambda f: None)
        net.add_interceptor(lambda f: None)
        net.send("src", "dst", b"x")
        assert registry.count("net.frames_dropped") == 1


class TestFrame:
    def test_size(self):
        f = Frame(src="a", dst="b", payload=b"12345", sent_at=0.0)
        assert f.size == 5
