"""The link-layer send scheduler: batching, overflow, breaker backpressure.

Unit tests drive a :class:`~repro.net.linkq.LinkScheduler` directly
through recording callbacks; the integration tests put a scheduler-backed
:class:`~repro.sim.network.SimNetwork` under an injected link outage
(`repro.sim.faults`) and check the backpressure contract: bounded
queues, defer/drop per policy, a breaker that opens — and a clean,
deadlock-free drain on close.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

import pytest

from repro import obs
from repro.crypto.drbg import HmacDrbg
from repro.net import framing
from repro.net.linkq import LinkPolicy, LinkScheduler
from repro.net.tcp import TcpTransport
from repro.overlay import Broker, ClientPeer, UserDatabase
from repro.overlay.policy import link_breaker_factory
from repro.sim import SimNetwork, VirtualClock
from repro.sim.faults import FaultPlan, LinkOutage
from repro.sim.network import SIM_BATCH_MAGIC


@pytest.fixture()
def fresh_obs():
    saved = (obs.get_registry(), obs.get_tracer(), obs.get_events())
    registry = obs.set_registry(obs.Registry(enabled=True))
    obs.set_tracer(obs.Tracer(registry=registry))
    obs.set_events(obs.ProtocolEvents(registry=registry))
    try:
        yield registry
    finally:
        obs.set_registry(saved[0])
        obs.set_tracer(saved[1])
        obs.set_events(saved[2])


class Wire:
    """Recording backend callbacks for a bare scheduler."""

    def __init__(self, delivered: bool = True) -> None:
        self.singles: list[tuple[str, str, bytes]] = []
        self.batches: list[tuple[str, str, bytes]] = []
        self.delivered = delivered

    def send_single(self, src: str, dst: str, payload: bytes) -> bool:
        self.singles.append((src, dst, payload))
        return self.delivered

    def send_batch(self, src: str, dst: str, payload: bytes) -> bool:
        self.batches.append((src, dst, payload))
        return self.delivered

    @property
    def units(self) -> int:
        return len(self.singles) + len(self.batches)

    def batched_payloads(self, index: int = -1) -> list[bytes]:
        return framing.decode_batch_payload(self.batches[index][2])


def scheduler(policy: LinkPolicy | None = None, wire: Wire | None = None,
              clock: VirtualClock | None = None, **kwargs) -> tuple:
    clock = clock or VirtualClock()
    wire = wire or Wire()
    sched = LinkScheduler(policy or LinkPolicy(),
                          clock_now=lambda: clock.now,
                          send_single=wire.send_single,
                          send_batch=wire.send_batch, **kwargs)
    return sched, wire, clock


class TestScheduling:
    def test_idle_link_flushes_immediately_as_legacy_frame(self):
        sched, wire, _clock = scheduler()
        assert sched.enqueue("a", "b", b"solo") is True
        assert wire.singles == [("a", "b", b"solo")]
        assert wire.batches == []
        assert sched.pending_frames() == 0

    def test_busy_link_coalesces_under_idle_heuristic(self):
        sched, wire, clock = scheduler()
        sched.enqueue("a", "b", b"first")            # idle -> ships now
        sched.enqueue("a", "b", b"second")           # hot link -> queues
        assert sched.pending_frames() == 1
        clock.advance(1.0)
        sched.pump()
        assert wire.singles == [("a", "b", b"first"), ("a", "b", b"second")]

    def test_quiet_link_goes_back_to_immediate(self):
        sched, wire, clock = scheduler()
        sched.enqueue("a", "b", b"one")
        clock.advance(LinkPolicy().idle_flush_s * 3)
        sched.enqueue("a", "b", b"two")              # link went quiet again
        assert [p for _, _, p in wire.singles] == [b"one", b"two"]

    def test_corked_burst_ships_one_batch_in_order(self):
        sched, wire, _clock = scheduler()
        payloads = [b"frame-%d" % i for i in range(6)]
        with sched.corked():
            for payload in payloads:
                sched.enqueue("a", "b", payload)
            assert wire.units == 0                   # held open
        assert wire.singles == []
        assert len(wire.batches) == 1
        assert wire.batched_payloads() == payloads

    def test_batch_frame_cap_chunks_units(self):
        policy = LinkPolicy(max_batch_frames=4)
        sched, wire, _clock = scheduler(policy)
        with sched.corked():
            for i in range(10):
                sched.enqueue("a", "b", b"p%d" % i)
        # 4 + 4 inside the cork (cap-triggered), 2 at cork exit
        assert [len(framing.decode_batch_payload(p))
                for _, _, p in wire.batches] == [4, 4, 2]

    def test_batch_byte_cap_chunks_units(self):
        policy = LinkPolicy(max_batch_bytes=1024)
        sched, wire, _clock = scheduler(policy)
        with sched.corked():
            for _ in range(4):
                sched.enqueue("a", "b", b"x" * 700)
        # no two 700-byte frames fit under 1024 together
        assert wire.units == 4

    def test_per_destination_queues_are_independent(self):
        sched, wire, _clock = scheduler()
        with sched.corked():
            sched.enqueue("a", "b", b"to-b-1")
            sched.enqueue("a", "c", b"to-c-1")
            sched.enqueue("a", "b", b"to-b-2")
        assert len(wire.batches) == 1               # a->b pair
        assert wire.batched_payloads() == [b"to-b-1", b"to-b-2"]
        assert wire.singles == [("a", "c", b"to-c-1")]

    def test_request_barrier_flush_link(self):
        sched, wire, _clock = scheduler()
        with sched.corked():
            sched.enqueue("a", "b", b"datagram")
            sched.flush_link("a", "b")
            assert wire.singles == [("a", "b", b"datagram")]

    def test_adaptive_window_widens_with_depth(self):
        policy = LinkPolicy(base_delay_s=0.002, max_delay_s=0.02)
        assert policy.delay_for(1) == pytest.approx(0.002)
        assert policy.delay_for(5) == pytest.approx(0.010)
        assert policy.delay_for(1000) == pytest.approx(0.020)

    def test_defer_hook_arms_and_pump_flushes_on_deadline(self):
        timers: list[float] = []
        sched, wire, clock = scheduler(
            defer=lambda delay, cb: timers.append(delay))
        sched.enqueue("a", "b", b"warm")             # make the link hot
        sched.enqueue("a", "b", b"queued")
        assert timers and timers[-1] <= LinkPolicy().max_delay_s
        sched.pump()                                 # window not expired yet
        assert sched.pending_frames() == 1
        clock.advance(LinkPolicy().max_delay_s)
        sched.pump()
        assert sched.pending_frames() == 0
        assert [p for _, _, p in wire.singles] == [b"warm", b"queued"]


class TestCompression:
    def test_negotiated_level_compresses_large_batches(self):
        sched, wire, _clock = scheduler(LinkPolicy(min_compress_bytes=64))
        sched.set_link_compression("a", "b", 6)
        with sched.corked():
            for _ in range(8):
                sched.enqueue("a", "b", b"compressible " * 10)
        payload = wire.batches[0][2]
        assert payload[0] & framing.BATCH_FLAG_ZLIB
        assert framing.decode_batch_payload(payload) == \
            [b"compressible " * 10] * 8

    def test_unnegotiated_link_ships_raw(self):
        sched, wire, _clock = scheduler(LinkPolicy(min_compress_bytes=64))
        sched.set_link_compression("a", "c", 6)      # a different link
        with sched.corked():
            for _ in range(8):
                sched.enqueue("a", "b", b"compressible " * 10)
        assert wire.batches[0][2][0] == 0

    def test_compression_metrics(self, fresh_obs):
        sched, wire, _clock = scheduler(LinkPolicy(min_compress_bytes=64))
        sched.set_link_compression("a", "b", 6)
        with sched.corked():
            for _ in range(8):
                sched.enqueue("a", "b", b"compressible " * 10)
        assert fresh_obs.count("net.compress.units") == 1
        assert fresh_obs.count("net.compress.bytes_out") < \
            fresh_obs.count("net.compress.bytes_in")


class TestBackpressure:
    def test_overflow_drop_sheds_newest_and_stays_bounded(self, fresh_obs):
        policy = LinkPolicy(max_queue_frames=4, overflow="drop")
        sched, wire, _clock = scheduler(policy)
        with sched.corked():
            results = [sched.enqueue("a", "b", b"f%d" % i) for i in range(6)]
            assert results == [True] * 4 + [False, False]
            assert sched.pending_frames() == 4
        assert fresh_obs.count("net.queue.drop") == 2
        assert wire.batched_payloads() == [b"f0", b"f1", b"f2", b"f3"]

    def test_overflow_defer_force_flushes(self, fresh_obs):
        policy = LinkPolicy(max_queue_frames=4, overflow="defer")
        sched, wire, _clock = scheduler(policy)
        with sched.corked():
            for i in range(6):
                assert sched.enqueue("a", "b", b"f%d" % i) is not False
            # the 5th enqueue hit the cap and flushed the first four
            assert sched.pending_frames() == 2
        assert fresh_obs.count("net.queue.defer") == 1
        assert sum(len(framing.decode_batch_payload(p))
                   for _, _, p in wire.batches) == 6

    def test_breaker_opens_on_failed_flushes_then_fails_fast(self):
        clock = VirtualClock()
        wire = Wire(delivered=False)                 # every unit is lost
        sched, wire, clock = scheduler(
            wire=wire, clock=clock,
            breaker_factory=link_breaker_factory(clock, failure_threshold=3,
                                                 reset_timeout_s=5.0))
        for i in range(3):
            # idle gaps: each send flushes (and fails) on its own
            clock.advance(LinkPolicy().idle_flush_s * 2)
            assert sched.enqueue("a", "dead", b"lost-%d" % i) is False
        # three failed deliveries opened the breaker: sends shed instantly
        clock.advance(LinkPolicy().idle_flush_s * 2)
        assert sched.enqueue("a", "dead", b"after") is False
        assert wire.units == 3
        # cooldown elapses -> half-open probe goes through again
        clock.advance(5.0)
        wire.delivered = True
        assert sched.enqueue("a", "dead", b"probe") is True
        assert wire.singles[-1][2] == b"probe"

    def test_depth_gauge_tracks_queue(self, fresh_obs):
        sched, _wire, _clock = scheduler()
        with sched.corked():
            sched.enqueue("a", "b", b"one")
            sched.enqueue("a", "b", b"two")
            assert fresh_obs.gauge("net.queue.depth").value == 2
        assert fresh_obs.gauge("net.queue.depth").value == 0

    @pytest.mark.parametrize("overflow", ["defer", "drop"])
    def test_depth_gauge_equals_a_recount_over_many_links(self, fresh_obs,
                                                          overflow):
        """The running depth never drifts from the queues it counts."""
        rng = random.Random(f"depth-{overflow}")
        sources = [f"src:{i}" for i in range(10)]
        dests = [f"dst:{i}" for i in range(12)]         # 120 links
        policy = LinkPolicy(max_queue_frames=6, max_batch_frames=8,
                            overflow=overflow)
        sched, _wire, clock = scheduler(policy)
        gauge = fresh_obs.gauge("net.queue.depth")

        def enqueue(src=None, dst=None):
            clock.advance(rng.choice([0.0, 0.001, 0.01]))
            sched.enqueue(src or rng.choice(sources), dst or rng.choice(dests),
                          b"x", coalesce=rng.choice([None, True, False]))

        def check():
            recount = sum(sched.pending_frames(src) for src in sources)
            assert gauge.value == recount == sched.pending_frames()

        for _ in range(3000):
            op = rng.choices(["enqueue", "corked", "flush_link", "flush_all",
                              "forget"], weights=[70, 10, 10, 3, 7])[0]
            if op == "enqueue":
                enqueue()
            elif op == "corked":
                hot = (rng.choice(sources), rng.choice(dests))
                with sched.corked():
                    for _ in range(rng.randrange(1, 20)):
                        enqueue(*(hot if rng.random() < 0.5 else ()))
                        check()
            elif op == "flush_link":
                sched.flush_link(rng.choice(sources), rng.choice(dests))
            elif op == "flush_all":
                sched.flush_all()
            else:
                sched.forget(rng.choice(sources + dests))
            check()
        assert fresh_obs.count(f"net.queue.{overflow}") > 0


class TestOutageIntegration:
    """The satellite: queue overflow under an injected outage."""

    def _world(self, policy: LinkPolicy, threshold: int = 3):
        net = SimNetwork(clock=VirtualClock())
        got: list[bytes] = []
        net.register("rx", lambda frame: got.append(frame.payload) or None)
        net.configure_links(policy, breaker_factory=link_breaker_factory(
            net.clock, failure_threshold=threshold, reset_timeout_s=10.0))
        return net, got

    def test_outage_trips_breaker_and_bounds_the_queue(self, fresh_obs):
        policy = LinkPolicy(max_queue_frames=8, overflow="drop")
        net, got = self._world(policy)
        FaultPlan(LinkOutage("tx", "rx", start=0.0, heal_at=60.0)).install(net)
        shed = 0
        with net.scheduler.corked():
            for i in range(64):
                if net.send("tx", "rx", b"blackhole-%d" % i) is False:
                    shed += 1
                assert net.scheduler.pending_frames() <= policy.max_queue_frames
        assert got == []                             # outage ate everything
        assert shed > 0                              # bounded, not buffered
        assert fresh_obs.count("net.queue.drop") > 0
        assert fresh_obs.count("faults.link_outage.injected") > 0
        # breaker is open: a fresh send fails fast without queue growth
        assert net.send("tx", "rx", b"fail-fast") is False
        assert net.scheduler.pending_frames() == 0

    def test_defer_policy_keeps_paying_flushes_during_outage(self, fresh_obs):
        policy = LinkPolicy(max_queue_frames=4, overflow="defer")
        net, _got = self._world(policy, threshold=100)
        FaultPlan(LinkOutage("tx", "rx", start=0.0, heal_at=60.0)).install(net)
        with net.scheduler.corked():
            for i in range(32):
                net.send("tx", "rx", b"deferred-%d" % i)
                assert net.scheduler.pending_frames() <= policy.max_queue_frames
        assert fresh_obs.count("net.queue.defer") > 0

    def test_recovery_after_heal_and_cooldown(self):
        policy = LinkPolicy(max_queue_frames=8, overflow="drop")
        net, got = self._world(policy)
        FaultPlan(LinkOutage("tx", "rx", start=0.0, heal_at=1.0)).install(net)
        for i in range(8):
            net.send("tx", "rx", b"lost-%d" % i)
        assert got == []
        net.clock.advance(30.0)                      # heal + breaker cooldown
        assert net.send("tx", "rx", b"revived") is True
        assert got == [b"revived"]

    def test_unregister_drains_without_deadlock(self):
        policy = LinkPolicy(max_queue_frames=8, overflow="drop")
        net, got = self._world(policy, threshold=100)
        FaultPlan(LinkOutage("tx", "rx", start=0.0, heal_at=60.0)).install(net)
        with net.scheduler.corked():
            for i in range(4):
                net.send("tx", "rx", b"stranded-%d" % i)
            # an endpoint disappearing mid-cork must flush-and-go, even
            # though every delivery fails against the outage
            net.unregister("tx")
        assert net.scheduler.pending_frames("tx") == 0
        assert got == []


class TestLegacyByteIdentity:
    """Uncorked top-level sends => the wire is as if no scheduler existed."""

    def _deliveries(self, use_scheduler: bool, corked: bool) -> list[bytes]:
        net = SimNetwork(clock=VirtualClock())
        seen: list[bytes] = []
        net.add_interceptor(lambda frame: seen.append(frame.payload) or frame)
        net.register("rx", lambda frame: None)
        if use_scheduler:
            net.configure_links(LinkPolicy())
        with net.corked() if corked else nullcontext():
            for i in range(8):
                net.send("tx", "rx", b"legacy-%d" % i)
        return seen

    def test_flag_off_reproduces_the_unscheduled_wire(self):
        uncorked = self._deliveries(use_scheduler=True, corked=False)
        assert uncorked == [b"legacy-%d" % i for i in range(8)]
        assert all(not p.startswith(SIM_BATCH_MAGIC) for p in uncorked)

    def test_flag_on_batches_the_same_traffic(self):
        batched = self._deliveries(use_scheduler=True, corked=True)
        assert len(batched) == 1
        assert batched[0].startswith(SIM_BATCH_MAGIC)


class TestSimDrain:
    """What a handler sends while the shared scheduler flushes is not stranded."""

    @pytest.mark.parametrize("corked", [False, True])
    def test_forwarded_frames_arrive_before_control_returns(self, corked):
        net = SimNetwork(clock=VirtualClock())
        got: list[bytes] = []
        net.register("bob", lambda frame: got.append(frame.payload) or None)
        net.register("broker", lambda frame: net.send(
            "broker", "bob", b"fwd:" + frame.payload) and None)
        net.configure_links(LinkPolicy())
        with net.corked() if corked else nullcontext():
            for i in range(3):
                net.send("alice", "broker", b"m%d" % i)
        assert got == [b"fwd:m0", b"fwd:m1", b"fwd:m2"]
        assert net.scheduler.pending_frames() == 0

    def test_request_from_a_flushed_handler_follows_its_datagram(self):
        # a's handler runs inside the flush of the top-level send; its
        # request to b must still ship the datagram queued ahead of it.
        net = SimNetwork(clock=VirtualClock())
        got: list[bytes] = []
        net.register("b", lambda frame: got.append(frame.payload) or b"ok")
        net.register("a", lambda frame: net.send("a", "b", b"datagram")
                     and net.request("a", "b", b"request") and None)
        net.send("driver", "a", b"go")
        assert got == [b"datagram", b"request"]


class TestSharedTransport:
    """Every node on a transport shares its one link scheduler."""

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_second_node_keeps_the_first_nodes_negotiated_link(self, backend):
        net = (SimNetwork() if backend == "sim"
               else TcpTransport(request_timeout=10.0))
        root = HmacDrbg(b"shared-transport")
        db = UserDatabase(root.fork(b"db"))
        db.register_user("alice", "pw-a", {"students"})
        db.register_user("bob", "pw-b", {"students"})
        broker = Broker(net, "broker:0", db, root.fork(b"br"), name="B0")
        alice = ClientPeer(net, "peer:alice", root.fork(b"al"), name="alice-app")
        bob = ClientPeer(net, "peer:bob", root.fork(b"bo"), name="bob-app")
        received: list[str] = []
        bob.events.subscribe("message_received",
                             lambda **kw: received.append(kw["text"]))
        policy = LinkPolicy(compress_level=6)
        try:
            broker.enable_link_batching(policy)
            alice.enable_link_batching(policy)
            alice.connect("broker:0")
            alice.login("alice", "pw-a")
            assert alice.negotiate_link("broker:0") == 6
            bob.enable_link_batching(policy)
            links = alice.control.endpoint.net.scheduler
            assert links.link_compression("peer:alice", "broker:0") == 6
            assert links is bob.control.endpoint.net.scheduler
            bob.connect("broker:0")
            bob.login("bob", "pw-b")
            assert alice.send_msg_peer(str(bob.peer_id), "students",
                                       "still linked").ok
            deadline = time.monotonic() + 10.0
            while not received and time.monotonic() < deadline:
                time.sleep(0.01)
            assert received == ["still linked"]
        finally:
            for node in (alice, bob, broker):
                node.control.close()
            if backend == "tcp":
                net.close()


class TestRetuning:
    """A later ``configure_links`` keeps link state and installs its factory."""

    def test_enable_link_batching_arms_the_simulators_breakers(self):
        net = SimNetwork(clock=VirtualClock())
        root = HmacDrbg(b"retuned-breakers")
        Broker(net, "broker:0", UserDatabase(root.fork(b"db")),
               root.fork(b"br"), name="B0").enable_link_batching(LinkPolicy())
        net.register("peer:gone", lambda frame: None)
        seen: list[bytes] = []
        net.add_interceptor(lambda frame: seen.append(frame.payload) and None)
        for i in range(5):  # link_breaker_factory's failure threshold
            assert net.send("broker:0", "peer:gone", b"lost-%d" % i) is False
        # the tripped link refuses before the interceptor chain sees it
        assert net.send("broker:0", "peer:gone", b"refused") is False
        assert seen == [b"lost-%d" % i for i in range(5)]

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_second_call_installs_its_breaker_factory(self, backend):
        net = (SimNetwork() if backend == "sim"
               else TcpTransport(request_timeout=10.0))
        factory = link_breaker_factory(net.clock)
        built: list[str] = []
        try:
            net.register("tx", lambda frame: None)
            net.register("rx", lambda frame: None)
            links = net.configure_links(LinkPolicy())
            assert net.configure_links(
                LinkPolicy(max_batch_frames=8),
                breaker_factory=lambda dst: built.append(dst) or factory(dst),
            ) is links
            assert links.policy.max_batch_frames == 8
            assert net.send("tx", "rx", b"guarded") is True
            assert built == ["rx"]
        finally:
            if backend == "tcp":
                net.close()


class TestLinkStateBound:
    """An endpoint that unregisters leaves no link state behind."""

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_peers_that_come_and_go_leave_no_links(self, backend):
        net = (SimNetwork() if backend == "sim"
               else TcpTransport(request_timeout=10.0))
        try:
            for address in ("hub", "resident"):
                net.register(address, lambda frame: None)
            links = net.configure_links(
                LinkPolicy(), breaker_factory=link_breaker_factory(net.clock))
            assert net.send("resident", "hub", b"hello")
            assert net.send("hub", "resident", b"welcome")
            start = links.link_count
            for i in range(16):
                peer = f"peer:{i}"
                net.register(peer, lambda frame: None)
                assert net.send(peer, "hub", b"hello")
                assert net.send("hub", peer, b"welcome")
                net.set_link_compression("hub", peer, 6)
                assert links.link_count > start
                net.unregister(peer)
            assert links.link_count == start
        finally:
            if backend == "tcp":
                net.close()


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            LinkPolicy(max_batch_frames=0)
        with pytest.raises(ValueError):
            LinkPolicy(max_queue_frames=0)
        with pytest.raises(ValueError):
            LinkPolicy(overflow="panic")
        with pytest.raises(ValueError):
            LinkPolicy(compress_level=10)
        with pytest.raises(ValueError):
            LinkPolicy(delta_batch=0)

    def test_negotiated_level_validated(self):
        sched, _wire, _clock = scheduler()
        with pytest.raises(ValueError):
            sched.set_link_compression("a", "b", 11)
