"""TcpTransport: real 127.0.0.1 sockets behind the Transport contract.

Every TCP test runs against OS-assigned loopback ports.  The suite pins
down the semantics the overlay's retry and failover machinery was
written against (see ``repro.net.base``), plus the drain-on-unregister
guarantees ``Endpoint.close()`` relies on.  The backend-neutral part of
the contract (the ``Contract``, ``LifecycleHooks`` and ``Unregister``
cases, all written against the ``backend`` fixture) runs again on the
simulator in :class:`TestSimNetworkContract`.
"""

from __future__ import annotations

import gc
import logging
import threading
import time

import pytest

from repro.errors import NetworkError
from repro.net.base import Frame, Transport
from repro.net.tcp import TcpTransport
from repro.sim import SimNetwork


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture()
def tcp():
    transport = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    yield transport
    transport.close()


@pytest.fixture()
def backend(tcp):
    """The transport the backend-neutral cases run on (overridden by
    :class:`TestSimNetworkContract`)."""
    return tcp


class ContractCases:
    def test_satisfies_the_transport_protocol(self, backend):
        assert isinstance(backend, Transport)

    def test_duplicate_register_raises(self, backend):
        backend.register("broker:0", lambda frame: None)
        with pytest.raises(NetworkError, match="already registered"):
            backend.register("broker:0", lambda frame: None)

    def test_send_to_unknown_destination_raises(self, backend):
        with pytest.raises(NetworkError, match="no endpoint registered"):
            backend.send("peer:a", "peer:ghost", b"x")

    def test_request_to_unknown_destination_raises(self, backend):
        with pytest.raises(NetworkError, match="no endpoint registered"):
            backend.request("peer:a", "peer:ghost", b"x")


class LifecycleHooksCases:
    def test_connect_and_close_fire_once_per_peer(self, backend):
        connected: list[str] = []
        closed: list[str] = []
        backend.register("svc", lambda frame: frame.payload,
                         on_connect=connected.append, on_close=closed.append)
        backend.request("peer:a", "svc", b"one")
        backend.request("peer:a", "svc", b"two")
        assert wait_for(lambda: connected == ["peer:a"])
        assert closed == []
        backend.unregister("svc")
        assert wait_for(lambda: closed == ["peer:a"])


class UnregisterCases:
    def test_unregister_is_idempotent(self, backend):
        backend.register("svc", lambda frame: None)
        backend.unregister("svc")
        backend.unregister("svc")          # no-op, no raise


class TestContract(ContractCases):
    def test_register_assigns_a_real_port(self, tcp):
        tcp.register("broker:0", lambda frame: None)
        host, port = tcp.location("broker:0")
        assert host == "127.0.0.1" and port > 0
        assert tcp.is_registered("broker:0")

    def test_location_of_unknown_address_raises(self, tcp):
        with pytest.raises(NetworkError):
            tcp.location("nowhere")


class TestDatagrams:
    def test_send_delivers_the_frame(self, tcp):
        got: list[Frame] = []
        tcp.register("svc", lambda frame: got.append(frame))
        assert tcp.send("peer:a", "svc", b"payload") is True
        assert wait_for(lambda: got)
        frame = got[0]
        assert (frame.src, frame.dst, frame.payload) == \
            ("peer:a", "svc", b"payload")

    def test_datagram_order_is_preserved_per_link(self, tcp):
        got: list[bytes] = []
        tcp.register("svc", lambda frame: got.append(frame.payload))
        for i in range(50):
            assert tcp.send("peer:a", "svc", b"%d" % i)
        assert wait_for(lambda: len(got) == 50)
        assert got == [b"%d" % i for i in range(50)]

    def test_oversize_datagram_is_dropped_not_raised(self, tcp):
        from repro.net import framing
        tcp.register("svc", lambda frame: None)
        huge = b"\x00" * (framing.max_body_bytes() + 1)
        assert tcp.send("peer:a", "svc", huge) is False


class TestRequests:
    def test_round_trip(self, tcp):
        tcp.register("svc", lambda frame: frame.payload.upper())
        assert tcp.request("peer:a", "svc", b"hello") == b"HELLO"

    def test_handler_answering_none_raises_like_the_sim(self, tcp):
        tcp.register("svc", lambda frame: None)
        with pytest.raises(NetworkError, match="did not answer"):
            tcp.request("peer:a", "svc", b"q")

    def test_handler_exception_surfaces_as_network_error(self, tcp):
        def boom(frame):
            raise RuntimeError("handler blew up")
        tcp.register("svc", boom)
        with pytest.raises(NetworkError, match="handler failed"):
            tcp.request("peer:a", "svc", b"q")

    def test_concurrent_requests_multiplex_on_one_connection(self, tcp):
        """Slow and fast requests from one src interleave by request id."""
        release = threading.Event()

        def handler(frame):
            if frame.payload == b"slow":
                # Generous ceiling: if this ever expired before the fast
                # request finished, "slow" could land first and the
                # ordering assertion below would flake under load.
                release.wait(30.0)
            return frame.payload

        tcp.register("svc", handler)
        results: dict[str, bytes] = {}

        def call(tag, payload):
            results[tag] = tcp.request("peer:a", "svc", payload)

        slow = threading.Thread(target=call, args=("slow", b"slow"))
        slow.start()
        # The fast request completes while the slow one is still parked.
        assert tcp.request("peer:a", "svc", b"fast") == b"fast"
        assert "slow" not in results
        release.set()
        slow.join(5.0)
        assert results["slow"] == b"slow"

    def test_concurrent_first_requests_share_one_connection(self, caplog):
        """Eight first requests racing on a fresh link open one socket."""
        tcp = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
        connected: list[str] = []
        tcp.register("svc", lambda frame: frame.payload,
                     on_connect=connected.append)
        barrier = threading.Barrier(8)
        results: list[bytes] = []

        def call(i):
            barrier.wait(5.0)
            results.append(tcp.request("peer:a", "svc", b"%d" % i))

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert sorted(results) == sorted(b"%d" % i for i in range(8))
            assert connected == ["peer:a"]
            tcp.close()
            gc.collect()
        assert not [r for r in caplog.records
                    if "Task was destroyed" in r.getMessage()]

    def test_nested_request_from_inside_a_handler(self, tcp):
        """The federation-handshake shape: the responder calls back into
        the still-blocked initiator mid-request."""
        tcp.register("initiator", lambda frame: b"pong:" + frame.payload)

        def responder_handler(frame):
            echoed = tcp.request("responder", "initiator", b"nested")
            return b"outer:" + echoed

        tcp.register("responder", responder_handler)
        assert tcp.request("initiator", "responder", b"go") == \
            b"outer:pong:nested"


class TestLifecycleHooks(LifecycleHooksCases):
    pass


class TestDrainOnUnregister(UnregisterCases):
    def test_unregister_fails_the_owners_in_flight_requests(self, tcp):
        """An endpoint closed mid-request cannot leak a hung caller."""
        entered = threading.Event()
        release = threading.Event()

        def handler(frame):
            entered.set()
            release.wait(10.0)
            return b"too late"

        tcp.register("svc", handler)
        tcp.register("caller", lambda frame: None)
        errors: list[Exception] = []

        def call():
            try:
                tcp.request("caller", "svc", b"q")
            except NetworkError as exc:
                errors.append(exc)

        thread = threading.Thread(target=call)
        thread.start()
        assert entered.wait(5.0)
        tcp.unregister("caller")
        thread.join(5.0)
        release.set()
        assert not thread.is_alive()
        # Either drain path is a prompt, clean failure: the owner scan
        # ("closed with the request in flight") or the connection reader
        # observing its socket die ("connection ... was lost").
        assert errors
        assert ("closed with the request in flight" in str(errors[0])
                or "was lost" in str(errors[0]))

    def test_unregister_drops_the_listening_socket(self, tcp):
        tcp.register("svc", lambda frame: frame.payload)
        tcp.unregister("svc")
        assert not tcp.is_registered("svc")
        with pytest.raises(NetworkError):
            tcp.request("peer:a", "svc", b"q")

    def test_unregister_closes_inbound_connections(self, tcp):
        closed: list[str] = []
        tcp.register("svc", lambda frame: frame.payload,
                     on_close=closed.append)
        tcp.request("peer:a", "svc", b"warm the connection")
        tcp.unregister("svc")
        assert wait_for(lambda: "peer:a" in closed)


class TestSimNetworkContract(ContractCases, LifecycleHooksCases,
                             UnregisterCases):
    """The backend-neutral cases again, on the simulator."""

    @pytest.fixture()
    def backend(self):
        return SimNetwork()


class TestClose:
    def test_close_tears_everything_down(self):
        tcp = TcpTransport()
        tcp.register("a", lambda frame: frame.payload)
        tcp.register("b", lambda frame: frame.payload)
        tcp.request("a", "b", b"x")
        tcp.close()
        assert not tcp.is_registered("a") and not tcp.is_registered("b")
        with pytest.raises(NetworkError, match="closed"):
            tcp.register("c", lambda frame: None)

    def test_close_is_idempotent(self):
        tcp = TcpTransport()
        tcp.register("a", lambda frame: None)
        tcp.close()
        tcp.close()

    def test_context_manager(self):
        with TcpTransport() as tcp:
            tcp.register("a", lambda frame: frame.payload)
            tcp.register("b", lambda frame: frame.payload)
            assert tcp.request("a", "b", b"ping") == b"ping"
        assert not tcp.is_registered("a")


class TestEndpointOverTcp:
    """The overlay's Endpoint riding the socket backend directly."""

    def test_message_round_trip_and_clean_close(self, tcp):
        from repro.jxta.endpoint import Endpoint
        from repro.jxta.messages import Message

        server = Endpoint(tcp, "svc")

        def echo(message, src):
            out = Message("echo_resp")
            out.add_text("text", message.get_text("text"))
            return out

        server.configure(handlers={"echo_req": echo})
        client = Endpoint(tcp, "peer:a")
        req = Message("echo_req")
        req.add_text("text", "over real sockets")
        resp = client.request("svc", req)
        assert resp.get_text("text") == "over real sockets"

        server.close()
        client.close()
        assert server.closed and client.closed
        assert not tcp.is_registered("svc")
        with pytest.raises(NetworkError, match="closed"):
            client.send("svc", req)
