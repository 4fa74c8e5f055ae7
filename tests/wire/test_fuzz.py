"""Malformed-frame fuzzing against live endpoints.

For every registered frame, mutate a valid instance (drop a required
field, wrong encoding, oversized payload, junk JSON, duplicate element,
forged rider, unknown msg_type) and deliver it to a live broker or
client.  Each delivery must be absorbed without an exception and must
increment exactly one ``wire.reject.*`` counter.
"""

from __future__ import annotations

import pytest

from frames import fresh_registry, mutations, wire_reject_counts
from repro import wire
from repro.errors import NetworkError
from repro.jxta import Endpoint, Message
from repro.jxta.ids import random_pipe_id
from repro.xmllib import Element


def _deliver_all(world, target: str, spec) -> None:
    rogue = Endpoint(world.net, "rogue:fuzz")
    endpoint = (world.broker if target == "broker:0" else world.alice)\
        .control.endpoint
    try:
        for label, malformed, reason in mutations(spec):
            rejected_before = endpoint.metrics.count("rx.rejected")
            expected = f"wire.reject.{spec.msg_type}.{reason}"
            with fresh_registry() as registry:
                assert rogue.send(target, malformed), label
                assert wire_reject_counts(registry) == {expected: 1}, label
            assert endpoint.metrics.count(
                "rx.rejected") == rejected_before + 1, label
    finally:
        rogue.close()


@pytest.mark.parametrize("msg_type", sorted(wire.REGISTRY))
def test_mutations_rejected_at_broker(plain_world, msg_type):
    _deliver_all(plain_world, "broker:0", wire.REGISTRY[msg_type])


@pytest.mark.parametrize(
    "msg_type", ["adv_push", "peer_joined", "peer_left", "pipe_data", "chat"])
def test_mutations_rejected_at_client(plain_world, msg_type):
    _deliver_all(plain_world, "peer:alice", wire.REGISTRY[msg_type])


def test_unknown_msg_type_counted(plain_world):
    rogue = Endpoint(plain_world.net, "rogue:fuzz")
    forged = Message("totally_made_up")
    forged.add_text("x", "1")
    with fresh_registry() as registry:
        assert rogue.send("broker:0", forged)
        assert wire_reject_counts(registry) == {
            "wire.reject.totally_made_up.unknown_type": 1}


def test_unknown_msg_type_request_goes_unanswered(plain_world):
    rogue = Endpoint(plain_world.net, "rogue:fuzz")
    with fresh_registry() as registry:
        with pytest.raises(NetworkError):
            rogue.request("broker:0", Message("totally_made_up"))
        assert registry.count(
            "wire.reject.totally_made_up.unknown_type") == 1


def test_metric_hostile_msg_type_sanitized(plain_world):
    rogue = Endpoint(plain_world.net, "rogue:fuzz")
    with fresh_registry() as registry:
        assert rogue.send("broker:0", Message("evil type.name"))
        assert wire_reject_counts(registry) == {
            "wire.reject.evil-type-name.unknown_type": 1}


class TestPipeInner:
    """The pipe demux re-validates the nested frame."""

    def _pipe_to_alice(self, world):
        control = world.alice.control
        pipe_id = random_pipe_id(control.drbg)
        control.pipes.create_input_pipe(pipe_id, "students")
        return control, str(pipe_id)

    def test_non_frame_inner_counted_bad_inner(self, plain_world):
        control, pipe_key = self._pipe_to_alice(plain_world)
        rogue = Endpoint(plain_world.net, "rogue:fuzz")
        outer = Message("pipe_data")
        outer.add_text("pipe_id", pipe_key)
        outer.add_xml("inner", Element("NotAFrame"))
        with fresh_registry() as registry:
            assert rogue.send("peer:alice", outer)
            assert wire_reject_counts(registry) == {
                "wire.reject.pipe_data.bad_inner": 1}
        assert control.endpoint.metrics.count("pipe.bad_inner") == 1

    def test_unknown_inner_type_rejected_before_delivery(self, plain_world):
        control, pipe_key = self._pipe_to_alice(plain_world)
        delivered = []
        control.pipes.get(pipe_key).add_listener(
            lambda message, src: delivered.append(message))
        rogue = Endpoint(plain_world.net, "rogue:fuzz")
        inner = Message("totally_made_up")
        inner.add_text("x", "1")
        outer = Message("pipe_data")
        outer.add_text("pipe_id", pipe_key)
        outer.add_xml("inner", inner.to_element())
        with fresh_registry() as registry:
            assert rogue.send("peer:alice", outer)
            assert wire_reject_counts(registry) == {
                "wire.reject.totally_made_up.unknown_type": 1}
        assert control.endpoint.metrics.count("pipe.rejected") == 1
        assert delivered == []
