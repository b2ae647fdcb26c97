"""One delivery model: a datagram never re-enters a running handler.

The simulator's link scheduler queues every datagram sent inside a
handler and ships it once the outermost network operation returns, so
an endpoint sees its next datagram only after its current handler
call is over — the ordering a socket backend produces.  Nested
*requests* still run inside the requesting handler, as they run
concurrently on sockets (the federation digest-sync handshake needs
them).  ``SimNetwork.reentrant_deliveries`` counts every datagram that
reaches an address whose handler is still running.
"""

from __future__ import annotations

from repro.bench.scale import _build_world, _phases
from repro.overlay import Broker
from repro.sim import SimNetwork, VirtualClock
from tests.conftest import PlainWorld


def test_pong_runs_after_the_pinging_call_returns():
    net = SimNetwork(clock=VirtualClock())
    depth = 0
    calls: list[tuple[bytes, int]] = []

    def a(frame):
        nonlocal depth
        depth += 1
        calls.append((frame.payload, depth))
        if frame.payload == b"go":
            net.send("a", "b", b"ping")
        depth -= 1

    net.register("a", a)
    net.register("b", lambda frame: net.send("b", "a", b"pong") and None)
    net.send("driver", "a", b"go")
    assert calls == [(b"go", 1), (b"pong", 1)]
    assert net.reentrant_deliveries == 0


def test_counts_a_datagram_shipped_into_a_running_handler():
    # b answers a's request by queueing a datagram to a and then
    # requesting back at a; the request's ordering barrier ships the
    # datagram first, while a's handler is still waiting on b.
    net = SimNetwork(clock=VirtualClock())

    def a(frame):
        if frame.payload == b"go":
            net.request("a", "b", b"req")
        return b"ok"

    def b(frame):
        net.send("b", "a", b"note")
        net.request("b", "a", b"back")
        return b"ok"

    net.register("a", a)
    net.register("b", b)
    net.request("driver", "a", b"go")
    assert net.reentrant_deliveries == 1


def test_nested_requests_are_not_counted():
    net = SimNetwork(clock=VirtualClock())
    net.register("a", lambda frame: (net.request("a", "b", b"sync")
                                     if frame.payload == b"link" else b"ok"))
    net.register("b", lambda frame: net.request("b", "a", b"digest"))
    assert net.request("driver", "a", b"link") == b"ok"
    assert net.reentrant_deliveries == 0


def test_three_broker_federation_link_up():
    world = PlainWorld()
    extras = [Broker(world.net, f"broker:{i}", world.db,
                     world.root.fork(b"delivery-br%d" % i), name=f"B{i}")
              for i in (1, 2)]
    for extra in extras:
        world.broker.link_broker(extra)
    world.join_all()
    assert set(world.broker.federation.members) >= {"broker:1", "broker:2"}
    assert world.net.reentrant_deliveries == 0


def test_quick_scale_population():
    scn, _pool, engine = _build_world(quick=True)
    phases, _adversaries = _phases(quick=True)
    engine.run(phases)
    assert scn.network.reentrant_deliveries == 0
