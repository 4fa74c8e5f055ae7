"""Endpoint service and pipes over the simulated network."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import JxtaError, NetworkError, PipeError
from repro.jxta import Endpoint, Message, PipeAdvertisement, PipeRegistry
from repro.jxta.ids import random_peer_id, random_pipe_id
from repro.jxta.pipes import OutputPipe
from repro.sim import SimNetwork, VirtualClock


@pytest.fixture()
def net():
    return SimNetwork(clock=VirtualClock())


@pytest.fixture()
def rng():
    return HmacDrbg(b"ep")


class TestEndpoint:
    def test_request_response(self, net):
        a = Endpoint(net, "a")
        b = Endpoint(net, "b")

        def handler(msg, src):
            assert src == "a"
            out = Message("pong")
            out.add_text("v", msg.get_text("v") * 2)
            return out

        b.on("ping", handler)
        req = Message("ping")
        req.add_text("v", "x")
        assert a.request("b", req).get_text("v") == "xx"

    def test_duplicate_handler_rejected(self, net):
        e = Endpoint(net, "e")
        e.on("t", lambda m, s: None)
        with pytest.raises(JxtaError):
            e.on("t", lambda m, s: None)

    def test_default_handler(self, net):
        seen = []
        a = Endpoint(net, "a")
        b = Endpoint(net, "b")
        b.on_default(lambda m, s: seen.append(m.msg_type) or None)
        a.send("b", Message("anything"))
        assert seen == ["anything"]

    def test_unhandled_message_counted(self, net):
        a = Endpoint(net, "a")
        b = Endpoint(net, "b")
        a.send("b", Message("nobody-listens"))
        assert b.metrics.count("rx.unhandled") == 1

    def test_undecodable_frame_dropped(self, net):
        b = Endpoint(net, "b")
        net.register("raw", lambda f: None)
        net.send("raw", "b", b"garbage bytes")
        assert b.metrics.count("rx.undecodable") == 1

    def test_request_without_answer_raises(self, net):
        a = Endpoint(net, "a")
        b = Endpoint(net, "b")
        b.on("q", lambda m, s: None)
        with pytest.raises(NetworkError):
            a.request("b", Message("q"))

    def test_close_unregisters(self, net):
        a = Endpoint(net, "a")
        a.close()
        assert not net.is_registered("a")

    def test_metrics_track_traffic(self, net):
        a = Endpoint(net, "a")
        b = Endpoint(net, "b")
        b.on("q", lambda m, s: Message("r"))
        a.request("b", Message("q"))
        a.send("b", Message("q2"))
        assert a.metrics.count("tx.requests") == 1
        assert a.metrics.count("tx.messages") == 1
        assert a.metrics.count("tx.bytes") > 0


class TestPipes:
    def test_input_output_delivery(self, net, rng):
        sender = Endpoint(net, "sender")
        receiver = Endpoint(net, "receiver")
        registry = PipeRegistry(receiver)
        pid = random_pipe_id(rng)
        pipe = registry.create_input_pipe(pid, "g")
        delivered = []
        pipe.add_listener(lambda msg, src: delivered.append(msg))
        adv = PipeAdvertisement(peer_id=random_peer_id(rng), pipe_id=pid,
                                group="g", address="receiver")
        out = OutputPipe(sender, adv)
        inner = Message("chat")
        inner.add_text("text", "hello")
        assert out.send(inner)
        assert delivered[0].get_text("text") == "hello"

    def test_listener_invoked(self, net, rng):
        receiver = Endpoint(net, "receiver")
        registry = PipeRegistry(receiver)
        pid = random_pipe_id(rng)
        pipe = registry.create_input_pipe(pid, "g")
        seen = []
        pipe.add_listener(lambda msg, src: seen.append((msg.msg_type, src)))
        sender = Endpoint(net, "sender")
        OutputPipe(sender, PipeAdvertisement(
            peer_id=random_peer_id(rng), pipe_id=pid, group="g",
            address="receiver")).send(Message("m"))
        assert seen == [("m", "sender")]

    def test_unknown_pipe_counted(self, net, rng):
        receiver = Endpoint(net, "receiver")
        PipeRegistry(receiver)
        sender = Endpoint(net, "sender")
        ghost = PipeAdvertisement(peer_id=random_peer_id(rng),
                                  pipe_id=random_pipe_id(rng), group="g",
                                  address="receiver")
        OutputPipe(sender, ghost).send(Message("m"))
        assert receiver.metrics.count("pipe.unknown") == 1

    def test_duplicate_pipe_rejected(self, net, rng):
        registry = PipeRegistry(Endpoint(net, "r"))
        pid = random_pipe_id(rng)
        registry.create_input_pipe(pid, "g")
        with pytest.raises(PipeError):
            registry.create_input_pipe(pid, "g")

    def test_close_pipe(self, net, rng):
        registry = PipeRegistry(Endpoint(net, "r"))
        pid = random_pipe_id(rng)
        registry.create_input_pipe(pid, "g")
        registry.close_pipe(pid)
        assert registry.get(pid) is None

    def test_output_pipe_requires_address(self, net, rng):
        sender = Endpoint(net, "s")
        bad = PipeAdvertisement(peer_id=random_peer_id(rng),
                                pipe_id=random_pipe_id(rng), group="g",
                                address="")
        with pytest.raises(PipeError):
            OutputPipe(sender, bad)
