"""JXTA pipes: virtual unidirectional message channels.

The Control Module gives every client one *input pipe per group*; other
group members resolve the pipe advertisement and open an *output pipe* to
send (section 2.2).  On our substrate a pipe id maps to an endpoint
address plus a demux tag, so pipe messages are ordinary endpoint messages
carrying the pipe id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import JxtaError, PipeError
from repro.jxta.advertisements import PipeAdvertisement
from repro.jxta.endpoint import Endpoint
from repro.jxta.ids import JxtaID
from repro.jxta.messages import Message

PIPE_MSG_TYPE = "pipe_data"

PipeListener = Callable[[Message, str], None]
"""Called with (inner message, source address) for each pipe delivery."""


@dataclass
class InputPipe:
    """The receiving half of a pipe, bound to a local endpoint."""

    pipe_id: JxtaID
    group: str
    endpoint: Endpoint
    listeners: list[PipeListener] = field(default_factory=list)

    def deliver(self, inner: Message, src: str) -> None:
        for listener in list(self.listeners):
            listener(inner, src)

    def add_listener(self, listener: PipeListener) -> None:
        self.listeners.append(listener)


class PipeRegistry:
    """Per-peer pipe demultiplexer; install once on an endpoint."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        self._pipes: dict[str, InputPipe] = {}
        endpoint.configure(handlers={PIPE_MSG_TYPE: self._on_pipe_message})

    def create_input_pipe(self, pipe_id: JxtaID, group: str) -> InputPipe:
        key = str(pipe_id)
        if key in self._pipes:
            raise PipeError(f"input pipe {key} already exists")
        pipe = InputPipe(pipe_id=pipe_id, group=group, endpoint=self.endpoint)
        self._pipes[key] = pipe
        return pipe

    def close_pipe(self, pipe_id: JxtaID) -> None:
        self._pipes.pop(str(pipe_id), None)

    def get(self, pipe_id: JxtaID) -> InputPipe | None:
        return self._pipes.get(str(pipe_id))

    def _on_pipe_message(self, message: Message, src: str) -> None:
        wire = self.endpoint._wire
        if wire is not None:
            frame = wire.decode(message)  # cache hit after the boundary
            pipe_key = frame["pipe_id"]
            inner_elem = frame["inner"]
        else:
            pipe_key = message.get_text("pipe_id")
            inner_elem = message.get_xml("inner")
        pipe = self._pipes.get(pipe_key)
        if pipe is None:
            self.endpoint.metrics.incr("pipe.unknown")
            return None
        try:
            inner = Message.from_element(inner_elem)
        except JxtaError:
            # A pipe frame whose payload is not a frame at all: drop it
            # here instead of letting the parse error escape dispatch.
            self.endpoint.metrics.incr("pipe.bad_inner")
            if wire is not None:
                wire.count_reject(message.msg_type, "bad_inner")
            return None
        if wire is not None and not wire.check(inner):
            self.endpoint.metrics.incr("pipe.rejected")
            return None
        pipe.deliver(inner, src)
        return None


class OutputPipe:
    """The sending half, resolved from a :class:`PipeAdvertisement`."""

    def __init__(self, endpoint: Endpoint, advertisement: PipeAdvertisement) -> None:
        if advertisement.pipe_id is None or not advertisement.address:
            raise PipeError("pipe advertisement lacks id or address")
        self.endpoint = endpoint
        self.advertisement = advertisement

    def send(self, inner: Message) -> bool:
        """Wrap ``inner`` in a pipe frame and deliver best-effort."""
        outer = Message(PIPE_MSG_TYPE)
        outer.add_text("pipe_id", str(self.advertisement.pipe_id))
        outer.add_xml("inner", inner.to_element())
        return self.endpoint.send(self.advertisement.address, outer)
