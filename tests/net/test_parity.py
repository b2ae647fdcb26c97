"""Backend parity: the secure protocol behaves identically on both
transports.

The same secure flow — secureConnection + secureLogin for two clients,
a first (full) and a resumed secure message, then a malformed frame
from a rogue sender — runs once on the discrete-event simulator and
once over real asyncio loopback sockets.  The per-endpoint sequences
of accepted message types (recorded through the ``on_receive``
lifecycle hook), the delivered plaintexts, the sid-issuance count and
the ``wire.reject.*`` taxonomy counters must come out byte-for-byte
identical: the backend moves frames, the protocol above it must not be
able to tell which one it is riding.

The whole comparison runs twice: in ``legacy`` mode (no link
scheduler — the pre-batching wire) and in ``batched`` mode (every node
runs ``enable_link_batching`` with zlib negotiated via the
``link_caps`` exchange).  Within a mode the two backends must still
trace identically, and the traces must be mode-invariant too: batching
is a wire-level optimization the protocol cannot observe.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro import obs
from repro.core import Administrator, SecureBroker, SecureClientPeer
from repro.core.keystore import Keystore
from repro.crypto.drbg import HmacDrbg
from repro.errors import JxtaError, OverlayError
from repro.jxta.endpoint import Endpoint
from repro.jxta.messages import Message
from repro.net.linkq import LinkPolicy
from repro.net.tcp import TcpTransport
from repro.sim import SimNetwork, VirtualClock
from tests.conftest import TEST_POLICY, cached_keypair


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _run_secure_flow(net, batched: bool = False) -> dict:
    """The whole flow on ``net``; returns the observable trace."""
    saved = obs.get_registry()
    obs.set_registry(obs.Registry())
    received: dict[str, list[str]] = {}
    texts: list[str] = []
    try:
        root = HmacDrbg(b"parity-world")
        admin = Administrator(root.fork(b"admin"),
                              keys=cached_keypair(512, "admin"))
        admin.register_user("alice", "pw-a", {"students"})
        admin.register_user("bob", "pw-b", {"students"})
        broker = SecureBroker.create(
            net, "broker:0", admin, root.fork(b"br"), name="B0",
            policy=TEST_POLICY, keys=cached_keypair(512, "broker"))

        def client(name: str, tag: bytes) -> SecureClientPeer:
            return SecureClientPeer(
                net, f"peer:{name}", root.fork(tag), admin.credential,
                name=f"{name}-app", policy=TEST_POLICY,
                keystore=Keystore(cached_keypair(512, f"client-{name}")))

        alice, bob = client("alice", b"al"), client("bob", b"bo")

        negotiated = None
        if batched:
            link_policy = LinkPolicy(compress_level=6, min_compress_bytes=64)
            for node in (broker, alice, bob):
                assert node.enable_link_batching(link_policy) is not None
            negotiated = (alice.negotiate_link("broker:0"),
                          bob.negotiate_link("broker:0"))

        def record(address: str):
            log = received.setdefault(address, [])
            return lambda message, src: log.append(message.msg_type)

        for node in (broker, alice, bob):
            endpoint = node.control.endpoint
            endpoint.configure(on_receive=record(endpoint.address))

        alice.secure_connect("broker:0")
        alice.secure_login("alice", "pw-a")
        bob.secure_connect("broker:0")
        bob.secure_login("bob", "pw-b")
        bob.events.subscribe("secure_message_received",
                             lambda **kw: texts.append(kw["text"]))

        # The broker pushes bob's pipe advertisement to alice without
        # waiting; over sockets it can still be in flight here, and alice
        # would then query the broker for it: one extra query_req.
        def alice_has_bobs_pipe() -> bool:
            try:
                alice.control.cached_pipe_element(str(bob.peer_id), "students")
            except (OverlayError, JxtaError):
                return False
            return True

        assert _wait_for(alice_has_bobs_pipe)
        assert alice.secure_msg_peer(str(bob.peer_id), "students",
                                     "parity one")
        assert _wait_for(lambda: len(texts) == 1)
        assert alice.secure_msg_peer(str(bob.peer_id), "students",
                                     "parity two")
        assert _wait_for(lambda: len(texts) == 2)

        # A rogue sender spraying a schema-invalid frame: the broker's
        # wire boundary must reject it identically on both backends.
        registry = obs.get_registry()
        malformed = Message("secure_connect_req")   # every field missing
        net.send("peer:rogue", "broker:0", malformed.to_wire())
        assert _wait_for(lambda: any(
            name.startswith("wire.reject.")
            for name in registry.metric_names()))

        rejects = {name: registry.count(name)
                   for name in registry.metric_names()
                   if name.startswith("wire.reject.")}
        sids_issued = broker.sids.issued_total

        for node in (alice, bob, broker):
            node.control.close()
        return {
            "received": received,
            "texts": list(texts),
            "rejects": rejects,
            "sids_issued": sids_issued,
            "negotiated": negotiated,
        }
    finally:
        obs.set_registry(saved)


@pytest.fixture(scope="module", params=["legacy", "batched"])
def mode(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def sim_trace(mode) -> dict:
    return _run_secure_flow(SimNetwork(clock=VirtualClock()),
                            batched=mode == "batched")


@pytest.fixture(scope="module")
def tcp_trace(mode) -> dict:
    with TcpTransport(request_timeout=30.0) as net:
        return _run_secure_flow(net, batched=mode == "batched")


class TestBackendParity:
    def test_batched_mode_negotiated_compression(self, mode, sim_trace,
                                                 tcp_trace):
        expected = (6, 6) if mode == "batched" else None
        assert sim_trace["negotiated"] == expected
        assert tcp_trace["negotiated"] == expected

    def test_flow_succeeds_on_both_backends(self, sim_trace, tcp_trace):
        assert sim_trace["texts"] == ["parity one", "parity two"]
        assert tcp_trace["texts"] == ["parity one", "parity two"]

    def test_identical_frame_sequences(self, sim_trace, tcp_trace):
        assert set(sim_trace["received"]) == set(tcp_trace["received"])
        for address in sim_trace["received"]:
            assert sim_trace["received"][address] == \
                tcp_trace["received"][address], address

    def test_broker_saw_the_full_secure_conversation(self, sim_trace):
        broker_log = sim_trace["received"]["broker:0"]
        # two secureConnections, two secureLogins, in order
        assert broker_log.count("secure_connect_req") == 2
        assert broker_log.count("secure_login_req") == 2
        assert broker_log.index("secure_connect_req") < \
            broker_log.index("secure_login_req")

    def test_identical_reject_taxonomy(self, sim_trace, tcp_trace):
        assert sim_trace["rejects"] == tcp_trace["rejects"]
        assert sim_trace["rejects"]    # the rogue frame was counted

    def test_identical_sid_issuance(self, sim_trace, tcp_trace):
        # one fresh sid per secureConnection, none for the resumed send
        assert sim_trace["sids_issued"] == tcp_trace["sids_issued"] == 2


class TestHostileDocuments:
    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_deeply_nested_frame_is_undecodable(self, backend):
        """A frame nested far past the parser's depth limit is dropped as
        undecodable; it must not escape as a RecursionError into the
        transport's handler."""
        saved = obs.get_registry()
        registry = obs.Registry()
        obs.set_registry(registry)
        try:
            with contextlib.ExitStack() as stack:
                if backend == "sim":
                    net = SimNetwork(clock=VirtualClock())
                else:
                    net = stack.enter_context(TcpTransport(request_timeout=10.0))
                target = Endpoint(net, "svc")
                depth = 3000
                nested = ('<Message ns="jxta-overlay" type="x">'
                          + "<E>" * depth + "</E>" * depth + "</Message>")
                net.send("peer:rogue", "svc", nested.encode())
                assert _wait_for(
                    lambda: target.metrics.count("rx.undecodable") == 1)
                assert target.metrics.count("rx.undecodable.JxtaError") == 1
                assert registry.count("net.tcp.handler_errors") == 0
                target.close()
        finally:
            obs.set_registry(saved)
