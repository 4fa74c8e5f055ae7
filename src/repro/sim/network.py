"""The simulator: a :class:`~repro.net.base.Transport` over virtual time.

Entities register a handler under an address.  Two delivery styles exist:

* :meth:`SimNetwork.send` — one-way datagram (used by advertisement
  broadcast and pipe messages),
* :meth:`SimNetwork.request` — synchronous round trip (used by the
  connect/login exchanges, which are request/response shaped in
  JXTA-Overlay).

Both styles move **serialized bytes**, never Python object references —
so anything an eavesdropper tap observes is exactly what a real wire
would carry, and an interceptor can only mount the attacks a real
man-in-the-middle could (replay, modify, redirect, drop).

Security-evaluation hooks (:mod:`repro.net.adversary`):

* **taps** observe every frame (passive eavesdropper, §2.3 threat 1);
* **interceptors** may rewrite/redirect/drop frames (fake broker via DNS
  spoofing, §2.3 threat 3, and message tampering, threat 2).

Transport lifecycle: on a simulated star network there is no socket to
accept, so ``on_connect`` fires on the first frame a peer delivers to
an address, and ``on_close`` fires for every such peer when the
address unregisters — exactly when a socket backend would drop the
connections of a disappearing endpoint.

Link scheduling: :meth:`SimNetwork.configure_links` gives one
registered address a :class:`~repro.net.linkq.LinkScheduler`.  Its
datagrams sent *inside* a handler of an in-flight operation, or under
:meth:`SimNetwork.corked`, coalesce into one simulated delivery per
BATCH wire unit — taps, interceptors and the link model see the batch
as a single frame, exactly as a socket would carry it — and the
scheduled addresses' queues are drained as the outermost send/request
returns, until none holds a frame.  Top-level sends outside a cork
flush immediately as legacy single-frame units, so an unbatched
caller cannot tell the scheduler is there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.errors import NetworkError
from repro.net import framing, linkq
from repro.net.adversary import AdversarySurface
from repro.net.base import Frame, FrameHandler, PeerHook
from repro.sim.clock import VirtualClock
from repro.sim.latency import LAN_2009, LinkModel

__all__ = ["Frame", "NetworkStats", "SIM_BATCH_MAGIC", "SimNetwork"]

#: Prefix marking a simulated BATCH wire unit.  Serialized overlay
#: messages are JSON or sealed-envelope bytes and never start with a
#: NUL byte, so the tag cannot collide with a real payload.
SIM_BATCH_MAGIC = b"\x00repro:batch\x01"


#: Per-frame instruments, resolved once instead of per record() call.
_M_FRAMES_SENT = obs.InternedCounter("net.frames_sent")
_M_BYTES_SENT = obs.InternedCounter("net.bytes_sent")
_M_FRAME_BYTES = obs.InternedHistogram("net.frame_bytes")
_M_FRAMES_DELIVERED = obs.InternedCounter("net.frames_delivered")
_M_FRAMES_DROPPED = obs.InternedCounter("net.frames_dropped")


@dataclass
class NetworkStats:
    """Aggregate traffic counters (feeds the benchmark reports)."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    bytes_sent: int = 0
    per_dst_bytes: dict[str, int] = field(default_factory=dict)

    def record(self, frame: Frame, delivered: bool) -> None:
        self.frames_sent += 1
        self.bytes_sent += frame.size
        if delivered:
            self.frames_delivered += 1
            self.per_dst_bytes[frame.dst] = self.per_dst_bytes.get(frame.dst, 0) + frame.size
        else:
            self.frames_dropped += 1
        registry = obs.get_registry()
        if registry.enabled:
            _M_FRAMES_SENT.incr()
            _M_BYTES_SENT.incr(frame.size)
            _M_FRAME_BYTES.observe(frame.size)
            if delivered:
                _M_FRAMES_DELIVERED.incr()
            else:
                _M_FRAMES_DROPPED.incr()
                obs.emit("on_frame_dropped", src=frame.src, dst=frame.dst,
                         n_bytes=frame.size)


@dataclass
class _EndpointState:
    """Everything the network tracks for one registered address."""

    handler: FrameHandler
    on_connect: PeerHook | None
    on_close: PeerHook | None
    #: peers that delivered here (connected; closed at unregister)
    seen: set[str] = field(default_factory=set)
    scheduler: linkq.LinkScheduler | None = None


class SimNetwork(AdversarySurface, linkq.LinkSurface):
    """A star network: every pair of endpoints shares one link model."""

    def __init__(self, clock: VirtualClock | None = None,
                 link: LinkModel = LAN_2009,
                 jitter_draw: Callable[[], float] | None = None,
                 loss_draw: Callable[[], float] | None = None) -> None:
        super().__init__()
        self.clock = clock if clock is not None else VirtualClock()
        self.default_link = link
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._endpoints: dict[str, _EndpointState] = {}
        #: addresses with a link scheduler, in first-configure order
        self._scheduled: dict[str, _EndpointState] = {}
        self._jitter_draw = jitter_draw
        self._loss_draw = loss_draw
        self.stats = NetworkStats()
        #: nesting depth of in-flight send/request calls (drain boundary)
        self._op_depth = 0
        self._draining = False

    # -- topology -----------------------------------------------------------

    def register(self, address: str, handler: FrameHandler, *,
                 on_connect: PeerHook | None = None,
                 on_close: PeerHook | None = None) -> None:
        """Attach an endpoint; raises if the address is taken."""
        if address in self._endpoints:
            raise NetworkError(f"address {address!r} is already registered")
        self._endpoints[address] = _EndpointState(handler, on_connect, on_close)
        obs.get_registry().set_gauge("net.endpoints", len(self._endpoints))

    def unregister(self, address: str) -> None:
        """Detach an endpoint: flush its queues, then close its peers."""
        state = self._endpoints.get(address)
        if state is None:
            return
        if state.scheduler is not None:
            state.scheduler.flush_for(address)
        del self._endpoints[address]
        self._scheduled.pop(address, None)
        obs.get_registry().set_gauge("net.endpoints", len(self._endpoints))
        if state.on_close is not None:
            for peer in sorted(state.seen):
                state.on_close(peer)

    def is_registered(self, address: str) -> bool:
        return address in self._endpoints

    def set_link(self, src: str, dst: str, link: LinkModel,
                 symmetric: bool = True) -> None:
        """Override the link model for a specific pair."""
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def link_for(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self.default_link)

    # -- link scheduling ------------------------------------------------------

    def configure_links(self, address: str,
                        policy: linkq.LinkPolicy | None = None, *,
                        breaker_factory=None) -> linkq.LinkScheduler:
        """Install (or replace) the link scheduler for ``address``'s sends."""
        state = self._endpoints.get(address)
        if state is None:
            raise NetworkError(f"no endpoint registered at {address!r}")
        state.scheduler = linkq.LinkScheduler(
            policy if policy is not None else linkq.LinkPolicy(),
            clock_now=lambda: self.clock.now,
            send_single=self._ship_unit,
            send_batch=lambda src, dst, payload: self._ship_unit(
                src, dst, SIM_BATCH_MAGIC + payload),
            breaker_factory=breaker_factory)
        self._scheduled[address] = state
        return state.scheduler

    def _ship_unit(self, src: str, dst: str, payload: bytes) -> bool:
        try:
            return self._transmit(src, dst, payload)
        except NetworkError:
            # The destination vanished after the frame was queued: a
            # best-effort datagram loss, not a caller error.
            return False

    def _drain(self) -> None:
        """Ship every uncorked queue, in configure order, until none holds
        a frame — also one that a later scheduler's flush delivered into
        an already-drained scheduler.

        Runs as the outermost send/request ends, so frames a handler
        queued reach the wire before simulation code regains control.
        """
        if self._draining or not self._scheduled:
            return
        self._draining = True
        try:
            shipped = True
            while shipped:
                shipped = False
                for state in list(self._scheduled.values()):
                    if not state.scheduler.corked_now:
                        shipped = state.scheduler.flush_all() or shipped
        finally:
            self._draining = False

    # -- delivery -------------------------------------------------------------

    def _transit(self, frame: Frame) -> bool:
        """Model the link crossing; returns False when the frame is lost."""
        link = self.link_for(frame.src, frame.dst)
        if self._loss_draw is not None and link.is_lost(self._loss_draw):
            return False
        self.clock.advance_network(link.transit_time(frame.size, self._jitter_draw))
        return True

    def _dispatch(self, state: _EndpointState, frame: Frame) -> bytes | None:
        """Hand a delivered frame to its endpoint, unwrapping BATCH units."""
        payloads = None
        if frame.payload.startswith(SIM_BATCH_MAGIC):
            payloads = framing.decode_batch_payload(
                frame.payload[len(SIM_BATCH_MAGIC):])
        if frame.src not in state.seen:
            state.seen.add(frame.src)
            if state.on_connect is not None:
                state.on_connect(frame.src)
        if payloads is None:
            return state.handler(frame)
        for payload in payloads:
            state.handler(Frame(src=frame.src, dst=frame.dst,
                                payload=payload, sent_at=frame.sent_at))
        return None

    def redeliver(self, frame: Frame) -> None:
        """Hand ``frame`` to its destination again, outside the wire.

        No adversary chain, transit or stats: the wire delivered the
        same bytes twice, it did not re-send them (duplicate faults).
        """
        state = self._endpoints.get(frame.dst)
        if state is not None:
            self._dispatch(state, frame)

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        """One-way delivery.  Returns ``True`` if the frame was delivered.

        Raises :class:`NetworkError` only for an unknown *original*
        destination; adversarial drops and link loss return ``False`` —
        datagrams are best-effort, exactly like JXTA pipe messages.
        """
        scheduler = self._scheduler(src)
        if scheduler is None:
            return self._transmit(src, dst, payload)
        if dst not in self._endpoints:
            raise NetworkError(f"no endpoint registered at {dst!r}")
        # Coalesce only where delivery order stays observable: inside a
        # handler of an in-flight operation (drained before the
        # outermost call returns) or under an explicit cork.
        return scheduler.enqueue(src, dst, payload, coalesce=self._op_depth > 0)

    def _transmit(self, src: str, dst: str, payload: bytes) -> bool:
        """Put one wire unit on the simulated wire (see :meth:`send`)."""
        if dst not in self._endpoints:
            raise NetworkError(f"no endpoint registered at {dst!r}")
        self._op_depth += 1
        try:
            frame = Frame(src=src, dst=dst, payload=bytes(payload), sent_at=self.clock.now)
            out = self._through_adversaries(frame)
            if out is None or out.dst not in self._endpoints:
                self.stats.record(frame, delivered=False)
                return False
            if not self._transit(out):
                self.stats.record(out, delivered=False)
                return False
            self.stats.record(out, delivered=True)
            self._dispatch(self._endpoints[out.dst], out)
            return True
        finally:
            self._op_depth -= 1
            if self._op_depth == 0:
                self._drain()

    def request(self, src: str, dst: str, payload: bytes) -> bytes:
        """Round-trip exchange; returns the responder's bytes.

        The handler's real CPU time is charged to the virtual clock via
        :meth:`VirtualClock.cpu_section`.  Raises :class:`NetworkError`
        when the request or the response is dropped or unanswered.
        """
        scheduler = self._scheduler(src)
        if scheduler is not None:
            # Ordering barrier: datagrams queued to this link must hit
            # the wire before the request does.
            scheduler.flush_link(src, dst)
        if dst not in self._endpoints:
            raise NetworkError(f"no endpoint registered at {dst!r}")
        self._op_depth += 1
        try:
            frame = Frame(src=src, dst=dst, payload=bytes(payload), sent_at=self.clock.now)
            out = self._through_adversaries(frame)
            if out is None or out.dst not in self._endpoints:
                self.stats.record(frame, delivered=False)
                raise NetworkError(f"request from {src!r} to {dst!r} was dropped")
            if not self._transit(out):
                self.stats.record(out, delivered=False)
                raise NetworkError(f"request from {src!r} to {dst!r} was lost in transit")
            self.stats.record(out, delivered=True)
            with self.clock.cpu_section():
                response = self._dispatch(self._endpoints[out.dst], out)
            if response is None:
                raise NetworkError(f"endpoint {out.dst!r} did not answer the request")
            back = Frame(src=out.dst, dst=src, payload=bytes(response), sent_at=self.clock.now)
            back_out = self._through_adversaries(back)
            if back_out is None:
                self.stats.record(back, delivered=False)
                raise NetworkError(f"response from {out.dst!r} to {src!r} was dropped")
            if not self._transit(back_out):
                self.stats.record(back_out, delivered=False)
                raise NetworkError(f"response from {out.dst!r} to {src!r} was lost in transit")
            self.stats.record(back_out, delivered=True)
            return back_out.payload
        finally:
            self._op_depth -= 1
            if self._op_depth == 0:
                self._drain()
