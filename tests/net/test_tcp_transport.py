"""The Transport contract, on real 127.0.0.1 sockets and the simulator.

TCP tests run against OS-assigned loopback ports.  The suite pins down
the semantics the overlay's retry and failover machinery was written
against (see ``repro.net.base``), plus the drain-on-unregister
guarantees ``Endpoint.close()`` relies on.  The contract classes run
once per backend: ``TcpTransport`` and ``SimNetwork``.
"""

from __future__ import annotations

import json
import logging
import threading
import time

import pytest

from repro import obs
from repro.crypto import resume
from repro.errors import NetworkError, ReplayError
from repro.jxta.endpoint import Endpoint
from repro.jxta.messages import Message
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


@pytest.fixture(params=["sim", "tcp"])
def transport(request):
    """Each backend in turn, behind the same contract."""
    if request.param == "sim":
        yield SimNetwork()
        return
    with TcpTransport(request_timeout=10.0, connect_timeout=5.0) as tcp:
        yield tcp


class TestContract:
    def test_satisfies_the_transport_protocol(self, transport):
        assert isinstance(transport, Transport)

    def test_register_assigns_a_real_port(self, tcp):
        tcp.register("broker:0", lambda frame: None)
        host, port = tcp.location("broker:0")
        assert host == "127.0.0.1" and port > 0
        assert tcp.is_registered("broker:0")

    def test_duplicate_register_raises(self, transport):
        transport.register("broker:0", lambda frame: None)
        with pytest.raises(NetworkError, match="already registered"):
            transport.register("broker:0", lambda frame: None)

    def test_send_to_unknown_destination_raises(self, transport):
        with pytest.raises(NetworkError, match="no endpoint registered"):
            transport.send("peer:a", "peer:ghost", b"x")

    def test_request_to_unknown_destination_raises(self, transport):
        with pytest.raises(NetworkError, match="no endpoint registered"):
            transport.request("peer:a", "peer:ghost", b"x")

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

    def test_handler_answering_none_raises_like_the_sim(self, transport):
        transport.register("svc", lambda frame: None)
        with pytest.raises(NetworkError, match="did not answer"):
            transport.request("peer:a", "svc", b"q")

    def test_handler_exception_surfaces_as_network_error(self, tcp):
        def boom(frame):
            raise RuntimeError("handler blew up")
        tcp.register("svc", boom)
        with pytest.raises(NetworkError, match="handler failed"):
            tcp.request("peer:a", "svc", b"q")

    def test_nested_request_back_over_the_pooled_connection(self, tcp):
        """``svc``'s handler requests ``peer:a``, whose handler requests
        ``svc`` again on the connection the outer request rode; the
        blocked ``svc`` actor serves the inner call meanwhile."""

        def svc(frame):
            if frame.payload == b"outer":
                return b"svc:" + tcp.request("svc", "peer:a", b"ping")
            return b"inner:" + frame.payload

        def peer(frame):
            return b"a:" + tcp.request("peer:a", "svc", frame.payload)

        tcp.register("svc", svc)
        tcp.register("peer:a", peer)
        assert tcp.request("peer:a", "svc", b"outer") == b"svc:a:inner:ping"
        assert tcp.request("peer:a", "svc", b"plain") == b"inner:plain"

    def test_concurrent_first_requests_share_one_connection(self, tcp):
        """Callers racing to open the same link end up on one pooled
        connection, so no request rides an orphaned one."""
        connected: list[str] = []
        tcp.register("svc", lambda frame: frame.payload,
                     on_connect=connected.append)
        start = threading.Barrier(8)
        results: list[bytes] = []

        def call(i):
            start.wait(5.0)
            results.append(tcp.request("peer:a", "svc", b"%d" % i))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(b"%d" % i for i in range(8))
        assert connected == ["peer:a"]

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


class TestOneOwnerPerEndpoint:
    """Each endpoint is an actor: its handlers run one at a time."""

    def test_handlers_of_one_endpoint_never_overlap(self, tcp):
        lock = threading.Lock()
        active = high = 0

        def handler(frame):
            nonlocal active, high
            with lock:
                active += 1
                high = max(high, active)
            time.sleep(0.05)
            with lock:
                active -= 1
            return frame.payload

        tcp.register("svc", handler)
        senders = [f"peer:{i}" for i in range(4)]
        start = threading.Barrier(len(senders))
        results: list[bytes] = []

        def call(src):
            start.wait(5.0)
            results.append(tcp.request(src, "svc", src.encode()))

        threads = [threading.Thread(target=call, args=(src,))
                   for src in senders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert sorted(results) == sorted(src.encode() for src in senders)
        assert high == 1

    def test_handlers_hooks_and_flush_timers_share_one_thread(self, tcp):
        seen: list[int] = []

        def record(*_args):
            seen.append(threading.get_ident())

        tcp.register("svc", lambda frame: record() or frame.payload,
                     on_connect=record, on_close=record)
        tcp.register("peer:a", lambda frame: None)
        tcp.register("rx", lambda frame: None)
        scheduler = tcp.configure_links("svc")
        pump = scheduler.pump

        def timed_pump():
            record()
            pump()

        scheduler.pump = timed_pump
        assert tcp.request("peer:a", "svc", b"x") == b"x"
        # the second datagram finds the link busy and waits for a timer
        assert tcp.send("svc", "rx", b"1") and tcp.send("svc", "rx", b"2")
        assert wait_for(lambda: scheduler.pending_frames() == 0)
        tcp.unregister("peer:a")          # svc's on_close fires
        assert wait_for(lambda: len(seen) >= 4)
        assert len(set(seen)) == 1
        assert seen[0] != threading.get_ident()

    def test_a_resumed_frame_sent_twice_at_once_is_delivered_once(self, tcp):
        """Two copies of one resumed frame race in on two connections;
        the endpoint's one owner accepts the first and blocks the other."""
        seed, suite = bytes(range(16)), "chacha20poly1305"
        sender = resume.derive_session(seed, suite, 0.0)
        store = resume.ReceiverResumeStore(max_uses=1000)
        store.register(seed, suite, "alice", 0.0)
        delivered: list[bytes] = []

        def handler(frame):
            try:
                plaintext, _ = store.open(json.loads(frame.payload), b"", 0.0)
            except ReplayError:
                return
            delivered.append(plaintext)

        tcp.register("rx", handler)
        for trial in range(100):
            frame = json.dumps(resume.seal_resumed(sender, bytes(2048))).encode()
            start = threading.Barrier(2)

            def replay(src):
                start.wait(5.0)
                tcp.send(src, "rx", frame)

            with obs.scope() as state:
                threads = [threading.Thread(target=replay, args=(src,))
                           for src in ("tx:1", "tx:2")]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(5.0)

                def outcomes():
                    return (len(delivered) - trial, state.registry.count(
                        "crypto.resume.replay_blocked"))

                assert wait_for(lambda: sum(outcomes()) == 2)
                assert outcomes() == (1, 1)


class TestLifecycleHooks:
    def test_connect_and_close_fire_once_per_peer(self, transport):
        connected: list[str] = []
        closed: list[str] = []
        transport.register("svc", lambda frame: frame.payload,
                           on_connect=connected.append, on_close=closed.append)
        transport.request("peer:a", "svc", b"one")
        transport.request("peer:a", "svc", b"two")
        assert wait_for(lambda: connected == ["peer:a"])
        assert closed == []
        transport.unregister("svc")
        assert wait_for(lambda: closed == ["peer:a"])


class TestLinkScheduling:
    BURST = 6

    def test_a_scheduler_belongs_to_the_address_that_configured_it(
            self, transport):
        """Two endpoints share one transport; only ``a`` batches."""
        got: list[tuple[str, str]] = []
        rx = Endpoint(transport, "rx")
        rx.configure(default=lambda message, src: got.append(
            (src, message.get_text("n"))))
        a = Endpoint(transport, "a")
        b = Endpoint(transport, "b")
        a.configure_links()

        def burst(endpoint):
            with obs.scope() as state:
                with endpoint.corked():
                    for i in range(self.BURST):
                        message = Message("burst")
                        message.add_text("n", str(i))
                        assert endpoint.send("rx", message) is True
                expected = [(endpoint.address, str(i))
                            for i in range(self.BURST)]
                assert wait_for(lambda: got[-self.BURST:] == expected)
            return state.registry

        # b never configured links: legacy single frames, no queueing
        legacy = burst(b)
        assert legacy.count("net.queue.enqueued") == 0
        assert legacy.count("net.batch.units") == 0
        # a's corked burst coalesces into one BATCH wire unit
        batched = burst(a)
        assert batched.count("net.queue.enqueued") == self.BURST
        assert batched.count("net.batch.units") == 1


class TestDrainOnUnregister:
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

    def test_unregister_is_idempotent(self, tcp):
        tcp.register("svc", lambda frame: None)
        tcp.unregister("svc")
        tcp.unregister("svc")          # no-op, no raise


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

    def test_close_mid_on_close_hook_logs_no_traceback(self, caplog):
        """Closing while a connection's ``on_close`` hook still runs
        cancels that connection task; asyncio must log nothing."""
        hook_entered = threading.Event()
        release = threading.Event()

        def on_close(peer):
            hook_entered.set()
            release.wait(5.0)

        tcp = TcpTransport()
        tcp.register("svc", lambda frame: None, on_close=on_close)
        tcp.register("peer:a", lambda frame: None)
        tcp.send("peer:a", "svc", b"open the connection")
        tcp.unregister("peer:a")      # the peer hangs up: the hook starts
        assert hook_entered.wait(5.0)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            tcp.close()               # cancels the task awaiting the hook
            release.set()
            time.sleep(0.1)
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_context_manager(self):
        with TcpTransport() as tcp:
            tcp.register("a", lambda frame: frame.payload)
            tcp.register("b", lambda frame: frame.payload)
            assert tcp.request("a", "b", b"ping") == b"ping"
        assert not tcp.is_registered("a")


class TestEndpointOverTcp:
    """The overlay's Endpoint riding the socket backend directly."""

    def test_message_round_trip_and_clean_close(self, tcp):
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
