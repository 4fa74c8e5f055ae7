"""``open_resumed`` as a state machine: seal, open, replay, reorder,
tamper and re-key interleaved on one sender/receiver session pair.

Invariants: the seqs a receiver accepts strictly increase, each sealed
frame is accepted at most once, a fresh frame of the live session is
always accepted, and a rejected frame leaves ``session.seq`` and
``session.uses`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.crypto.envelope import SUITES
from repro.crypto.resume import derive_session, open_resumed, seal_resumed
from repro.errors import DecryptionError, ReplayError
from repro.utils.encoding import b64decode, b64encode

AAD = b"peer:alice|peer:bob"


@dataclass
class Sealed:
    epoch: int
    seq: int
    env: dict[str, Any]
    plaintext: bytes


class ResumedChannel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.epoch = 0
        self.frames: list[Sealed] = []
        self.accepted: set[int] = set()

    @initialize(suite=st.sampled_from(sorted(SUITES)))
    def start(self, suite: str) -> None:
        self.rekey(suite)

    @rule(suite=st.sampled_from(sorted(SUITES)))
    def rekey(self, suite: str) -> None:
        """A fresh seed: both ends start a new session at seq 0."""
        self.epoch += 1
        seed = self.epoch.to_bytes(16, "big")
        self.sender = derive_session(seed, suite, 0.0)
        self.receiver = derive_session(seed, suite, 0.0)
        self.last_accepted = 0

    @rule(size=st.integers(min_value=0, max_value=96))
    def seal(self, size: int) -> None:
        plaintext = bytes((self.epoch + i) % 256 for i in range(size))
        env = seal_resumed(self.sender, plaintext, aad=AAD)
        self.frames.append(Sealed(self.epoch, env["seq"], env, plaintext))

    def _open(self, index: int, env: dict[str, Any]) -> bool:
        """Deliver ``env``; checks the model and says if it was accepted."""
        frame = self.frames[index]
        before = (self.receiver.seq, self.receiver.uses)
        try:
            plaintext = open_resumed(self.receiver, env, aad=AAD)
        except (ReplayError, DecryptionError):
            assert (self.receiver.seq, self.receiver.uses) == before
            return False
        assert env is frame.env and frame.epoch == self.epoch
        assert plaintext == frame.plaintext
        assert index not in self.accepted
        assert frame.seq > self.last_accepted
        self.accepted.add(index)
        self.last_accepted = frame.seq
        return True

    @precondition(lambda self: self.frames)
    @rule(data=st.data())
    def open_any(self, data) -> None:
        """In order, out of order, stale or from an earlier session."""
        index = data.draw(st.integers(0, len(self.frames) - 1))
        frame = self.frames[index]
        fresh = frame.epoch == self.epoch and frame.seq > self.last_accepted
        assert self._open(index, frame.env) == fresh

    @precondition(lambda self: self.accepted)
    @rule(data=st.data())
    def replay(self, data) -> None:
        index = data.draw(st.sampled_from(sorted(self.accepted)))
        assert not self._open(index, self.frames[index].env)

    @precondition(lambda self: self.frames)
    @rule(data=st.data(), flip=st.integers(min_value=0, max_value=255))
    def tamper(self, data, flip: int) -> None:
        index = data.draw(st.integers(0, len(self.frames) - 1))
        env = dict(self.frames[index].env)
        body = bytearray(b64decode(env["body"]))
        body[flip % len(body)] ^= 0x01
        env["body"] = b64encode(bytes(body))
        assert not self._open(index, env)

    @invariant()
    def receiver_trails_the_sender(self) -> None:
        if self.epoch:
            assert self.receiver.seq == self.last_accepted <= self.sender.seq


ResumedChannel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestResumedChannel = ResumedChannel.TestCase
