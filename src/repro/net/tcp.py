"""Real sockets: an asyncio TCP :class:`~repro.net.base.Transport`.

One ``TcpTransport`` owns a background asyncio event loop (daemon
thread).  Every registered endpoint address gets its **own listening
socket** on ``host`` (an OS-assigned port by default), recorded in an
address directory so logical overlay addresses ("broker:0",
"peer:alice") resolve to ``host:port`` pairs; :meth:`add_route` seeds
the directory for endpoints living in other processes.

Threading model — one owner per endpoint, as in the simulator:

* the **event loop thread** only moves bytes (accept, read, write);
* each registered address is an **actor**: one thread drains its FIFO
  mailbox, running the endpoint's frame handlers, ``on_connect`` /
  ``on_close`` hooks and link-scheduler flush timers one at a time, in
  arrival order;
* :meth:`request` on an actor's own thread keeps running that actor's
  jobs until the response arrives (the simulator's nested dispatch),
  so the federation link handshake, whose responder digest-syncs back
  at the still-blocked initiator, cannot deadlock.  Handlers of one
  endpoint therefore interleave only at :meth:`request` calls;
* a ``REQUEST`` frame never blocks its connection's reader (responses
  multiplex by ``request_id``); the reader waits for each ``DATA`` job,
  keeping per-link datagram order and TCP backpressure.

Delivery semantics match the simulator contract: :meth:`send` raises
:class:`~repro.errors.NetworkError` for an address the directory does
not know and returns ``False`` when the connection fails (best-effort
datagram); :meth:`request` raises :class:`NetworkError` on connection
failure, timeout, or a responder that answered nothing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import queue
import struct
import threading
import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import NetworkError
from repro.net import framing, linkq
from repro.net.adversary import AdversarySurface
from repro.net.base import Frame, FrameHandler, PeerHook
from repro.net.clock import WallClock

#: how long ``close()`` waits for the loop thread or an actor to wind down
_SHUTDOWN_GRACE = 5.0

#: the actor whose thread is the calling thread, if any
_CURRENT = threading.local()


class _Actor:
    """One endpoint's owner: a FIFO mailbox drained by one thread.

    Jobs must not raise; the posting side wraps each one.  ``None`` in
    the mailbox stops the actor once the jobs queued before it ran.
    """

    def __init__(self, address: str) -> None:
        self.mailbox: queue.SimpleQueue = queue.SimpleQueue()
        self.stopped = False
        self.thread = threading.Thread(target=self._main, daemon=True,
                                       name=f"repro-actor:{address}")
        self.thread.start()

    def _main(self) -> None:
        _CURRENT.actor = self
        while not self.stopped:
            self.run_next(None)

    def run_next(self, timeout: float | None) -> None:
        job = self.mailbox.get(timeout=timeout)
        if job is None:
            self.stopped = True
        else:
            job()


def _reply(future: concurrent.futures.Future, timeout: float):
    """``future.result(timeout)``.  On an actor's thread that actor keeps
    running its jobs meanwhile — the simulator's nested dispatch — so a
    request that calls back into its own endpoint cannot deadlock."""
    actor = getattr(_CURRENT, "actor", None)
    deadline = time.monotonic() + timeout
    if actor is not None:
        future.add_done_callback(lambda _: actor.mailbox.put(lambda: None))
        while not future.done() and not actor.stopped:
            try:
                actor.run_next(max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
    return future.result(max(0.0, deadline - time.monotonic()))


@dataclass
class _EndpointState:
    """Everything the transport tracks for one registered address."""

    handler: FrameHandler
    on_connect: PeerHook | None
    on_close: PeerHook | None
    actor: _Actor
    server: asyncio.AbstractServer | None = None
    #: inbound connection reader tasks (server side), for drain-on-unregister
    inbound: set[asyncio.Task] = field(default_factory=set)
    scheduler: linkq.LinkScheduler | None = None


@dataclass(eq=False)
class _Conn:
    """One pooled outbound connection (src endpoint -> dst address)."""

    src: str
    dst: str
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    pending: set[int] = field(default_factory=set)  # request ids in flight
    reader_task: asyncio.Task | None = None


class TcpTransport(AdversarySurface, linkq.LinkSurface):
    """Length-prefix-framed overlay frames over 127.0.0.1 (or any host)."""

    def __init__(self, host: str = "127.0.0.1", *,
                 request_timeout: float = 30.0,
                 connect_timeout: float = 5.0) -> None:
        super().__init__()
        self.host = host
        self.clock = WallClock()
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._directory: dict[str, tuple[str, int]] = {}
        self._endpoints: dict[str, _EndpointState] = {}
        self._conns: dict[tuple[str, str], _Conn] = {}
        self._pending: dict[int, tuple[concurrent.futures.Future, str]] = {}
        self._req_ids = itertools.count(1)
        self._closed = False

    # -- loop plumbing -----------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._closed:
                raise NetworkError("transport is closed")
            if self._loop is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=loop.run_forever, name="repro-net-loop", daemon=True)
                thread.start()
                self._loop, self._thread = loop, thread
            return self._loop

    def _run(self, coro, timeout: float | None):
        """Run ``coro`` on the loop from any other thread and wait."""
        loop = self._ensure_loop()
        future = asyncio.run_coroutine_threadsafe(coro, loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError as exc:
            future.cancel()
            raise NetworkError("transport operation timed out") from exc

    # -- link scheduling ---------------------------------------------------

    def configure_links(self, address: str,
                        policy: linkq.LinkPolicy | None = None, *,
                        breaker_factory=None) -> linkq.LinkScheduler:
        """Install (or replace) the link scheduler for ``address``'s sends.

        Datagrams to a busy link coalesce into BATCH wire units — one
        ``writer.write`` per flush — with the adaptive window armed as
        an event-loop timer; an idle link still flushes immediately,
        so request/response latency is untouched.
        """
        state = self._endpoints.get(address)
        if state is None:
            raise NetworkError(f"no endpoint registered at {address!r}")
        state.scheduler = linkq.LinkScheduler(
            policy if policy is not None else linkq.LinkPolicy(),
            clock_now=lambda: self.clock.now,
            send_single=lambda src, dst, payload: self._wire_send(
                src, dst, framing.KIND_DATA, payload),
            send_batch=lambda src, dst, payload: self._wire_send(
                src, dst, framing.KIND_BATCH, payload),
            breaker_factory=breaker_factory,
            defer=lambda delay, callback: self._arm_flush_timer(
                state, delay, callback))
        return state.scheduler

    def _arm_flush_timer(self, state: _EndpointState, delay: float,
                         callback) -> None:
        """Run ``callback`` on the endpoint's actor after ``delay`` seconds."""
        try:
            loop = self._ensure_loop()
        except NetworkError:
            return
        loop.call_soon_threadsafe(loop.call_later, delay, self._post, state,
                                  "net.tcp.handler_errors", callback)

    # -- registration ------------------------------------------------------

    def register(self, address: str, handler: FrameHandler, *,
                 on_connect: PeerHook | None = None,
                 on_close: PeerHook | None = None) -> None:
        with self._lock:
            if self._closed:
                raise NetworkError("transport is closed")
            if address in self._endpoints:
                raise NetworkError(f"address {address!r} is already registered")
            state = _EndpointState(handler=handler, on_connect=on_connect,
                                   on_close=on_close, actor=_Actor(address))
            self._endpoints[address] = state
        try:
            self._run(self._start_server(address, state), self.connect_timeout)
        except Exception:
            with self._lock:
                self._endpoints.pop(address, None)
            state.actor.mailbox.put(None)
            raise
        obs.get_registry().set_gauge("net.tcp.endpoints", len(self._endpoints))

    async def _start_server(self, address: str, state: _EndpointState) -> None:
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(address, state, r, w),
            self.host, 0)
        state.server = server
        port = server.sockets[0].getsockname()[1]
        with self._lock:
            self._directory[address] = (self.host, port)

    def location(self, address: str) -> tuple[str, int]:
        """The (host, port) a registered address listens on."""
        try:
            return self._directory[address]
        except KeyError:
            raise NetworkError(f"no endpoint registered at {address!r}") from None

    def add_route(self, address: str, host: str, port: int) -> None:
        """Seed the directory for an endpoint served by another process."""
        with self._lock:
            self._directory[address] = (host, port)

    def is_registered(self, address: str) -> bool:
        return address in self._directory

    # -- server side -------------------------------------------------------

    async def _serve_connection(self, address: str, state: _EndpointState,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve one inbound connection until it closes.

        Cancellation (unregister, shutdown) ends the task quietly: the
        stream server's done-callback reads ``task.exception()``, which
        for a cancelled task raises and makes asyncio log a
        ``CancelledError`` traceback.
        """
        task = asyncio.current_task()
        state.inbound.add(task)
        peer_src: str | None = None
        try:
            while True:
                head = await reader.readexactly(framing.LENGTH_BYTES)
                (length,) = struct.unpack(">I", head)
                try:
                    framing.check_length(length)
                    body = await reader.readexactly(length)
                    kind, req_id, src, payload = framing.decode_body(body)
                except framing.FramingError:
                    obs.get_registry().incr("net.tcp.bad_frames")
                    break  # unframeable stream: drop the connection
                if peer_src is None:
                    peer_src = src
                    if state.on_connect is not None:
                        self._post(state, "net.tcp.hook_errors",
                                   state.on_connect, src)
                frame = Frame(src=src, dst=address, payload=payload,
                              sent_at=self.clock.now)
                obs.get_registry().incr("net.tcp.frames_received")
                if kind == framing.KIND_REQUEST:
                    # Not awaited: the handler may block on a nested
                    # request back at this very peer (federation link
                    # handshake), so responses multiplex by id.
                    self._post(state, "net.tcp.handler_errors", state.handler,
                               frame).add_done_callback(
                        lambda done, req_id=req_id: self._respond(
                            writer, req_id, address, done.result()))
                elif kind == framing.KIND_DATA:
                    # Awaited: per-link datagram order, like the
                    # simulator, and TCP backpressure on the sender.
                    await self._post(state, "net.tcp.handler_errors",
                                     state.handler, frame)
                elif kind == framing.KIND_BATCH:
                    # One wire unit, several datagrams, in order.
                    try:
                        inner = framing.decode_batch_payload(payload)
                    except framing.FramingError:
                        obs.get_registry().incr("net.batch.decode_errors")
                        break
                    for data in inner:
                        await self._post(
                            state, "net.tcp.handler_errors", state.handler,
                            Frame(src=src, dst=address, payload=data,
                                  sent_at=self.clock.now))
                else:
                    obs.get_registry().incr("net.tcp.unexpected_kind")
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError):
            pass
        finally:
            state.inbound.discard(task)
            writer.close()
            if peer_src is not None and state.on_close is not None:
                self._post(state, "net.tcp.hook_errors", state.on_close,
                           peer_src)

    def _post(self, state: _EndpointState, errors: str, fn, *args
              ) -> asyncio.Future:
        """Queue ``fn(*args)`` on the endpoint's actor (loop thread only);
        the loop future returned resolves to what ``fn`` returned, or to
        the exception it raised, counted under ``errors``."""
        loop = asyncio.get_running_loop()
        done = loop.create_future()

        def job() -> None:
            try:
                result = fn(*args)
            except Exception as exc:
                obs.get_registry().incr(errors)
                result = exc
            try:  # a cancelled reader no longer waits for ``done``
                loop.call_soon_threadsafe(
                    lambda: done.done() or done.set_result(result))
            except RuntimeError:
                pass  # loop already closed

        state.actor.mailbox.put(job)
        return done

    def _respond(self, writer: asyncio.StreamWriter, req_id: int, address: str,
                 response) -> None:
        """Write a handler's answer back on its connection (loop thread)."""
        kind = framing.KIND_ERROR
        if isinstance(response, Exception):
            payload = f"handler failed: {type(response).__name__}".encode()
        elif response is None:
            payload = f"endpoint {address!r} did not answer the request".encode()
        else:
            kind, payload = framing.KIND_RESPONSE, bytes(response)
        try:
            out = framing.encode_frame(kind, req_id, address, payload)
        except framing.FramingError:
            out = None
        if out is None or writer.is_closing():
            obs.get_registry().incr("net.tcp.response_write_failures")
        else:
            writer.write(out)

    # -- client side -------------------------------------------------------

    async def _get_conn(self, src: str, dst: str) -> _Conn:
        key = (src, dst)
        conn = self._conns.get(key)
        if conn is not None and not conn.writer.is_closing():
            return conn
        host, port = self.location(dst)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), self.connect_timeout)
        # A concurrent caller may have connected while this one awaited;
        # a second pooled conn would orphan the first and its requests.
        conn = self._conns.get(key)
        if conn is not None and not conn.writer.is_closing():
            writer.close()
            return conn
        conn = _Conn(src, dst, reader, writer)
        conn.reader_task = asyncio.ensure_future(self._conn_reader(conn))
        self._conns[key] = conn
        return conn

    async def _conn_reader(self, conn: _Conn) -> None:
        """Resolve RESPONSE/ERROR frames arriving on an outbound conn."""
        try:
            while True:
                head = await conn.reader.readexactly(framing.LENGTH_BYTES)
                (length,) = struct.unpack(">I", head)
                framing.check_length(length)
                body = await conn.reader.readexactly(length)
                kind, req_id, _src, payload = framing.decode_body(body)
                entry = self._pending.pop(req_id, None)
                conn.pending.discard(req_id)
                if entry is None:
                    obs.get_registry().incr("net.tcp.orphan_responses")
                    continue
                future, _owner = entry
                if kind == framing.KIND_RESPONSE:
                    future.set_result(payload)
                elif kind == framing.KIND_ERROR:
                    future.set_exception(NetworkError(
                        payload.decode("utf-8", "replace")))
                else:
                    future.set_exception(NetworkError(
                        f"unexpected frame kind {kind:#x} in response"))
        except (asyncio.IncompleteReadError, ConnectionError,
                framing.FramingError, asyncio.CancelledError):
            pass
        finally:
            self._conns.pop((conn.src, conn.dst), None)
            try:
                conn.writer.close()
            except RuntimeError:
                pass  # loop already closed (coroutine finalized at GC)
            for req_id in list(conn.pending):
                entry = self._pending.pop(req_id, None)
                if entry is not None and not entry[0].done():
                    entry[0].set_exception(NetworkError(
                        f"connection from {conn.src!r} to {conn.dst!r} "
                        f"was lost"))

    async def _write_frame(self, src: str, dst: str, kind: int,
                           req_id: int, payload: bytes) -> None:
        conn = await self._get_conn(src, dst)
        out = framing.encode_frame(kind, req_id, src, payload)
        async with conn.write_lock:
            conn.writer.write(out)
            await conn.writer.drain()
        if kind == framing.KIND_REQUEST:
            conn.pending.add(req_id)

    # -- transport contract ------------------------------------------------

    def _wire_send(self, src: str, dst: str, kind: int, payload: bytes) -> bool:
        """Write one wire unit (DATA or BATCH); ``False`` on failure."""
        registry = obs.get_registry()
        try:
            self._run(self._write_frame(src, dst, kind, 0, bytes(payload)),
                      self.connect_timeout)
        except (NetworkError, OSError):
            registry.incr("net.tcp.frames_dropped")
            return False
        registry.incr("net.tcp.frames_sent")
        registry.incr("net.tcp.bytes_sent", len(payload))
        return True

    def _outbound(self, src: str, dst: str, payload: bytes) -> Frame | None:
        """What the adversary chain lets out toward a known address."""
        self.location(dst)  # unknown destination raises, like the sim
        out = self._through_adversaries(
            Frame(src=src, dst=dst, payload=bytes(payload),
                  sent_at=self.clock.now))
        return out if out is not None and out.dst in self._directory else None

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        """Best-effort datagram; ``False`` when the connection fails."""
        out = self._outbound(src, dst, payload)
        if out is None:
            # Adversarial drop (or redirect into the void): best-effort
            # loss, exactly the simulator's answer.
            obs.get_registry().incr("net.tcp.frames_dropped")
            return False
        src, dst, payload = out.src, out.dst, out.payload
        scheduler = self._scheduler(src)
        if scheduler is None:
            return self._wire_send(src, dst, framing.KIND_DATA, payload)
        # coalesce=None: the idle heuristic — a quiet link flushes this
        # frame immediately, a busy one queues behind the adaptive timer.
        return scheduler.enqueue(src, dst, payload)

    def request(self, src: str, dst: str, payload: bytes) -> bytes:
        """Round-trip exchange; raises :class:`NetworkError` on failure."""
        out = self._outbound(src, dst, payload)
        if out is None:
            raise NetworkError(f"request from {src!r} to {dst!r} was dropped")
        dst, payload = out.dst, out.payload
        scheduler = self._scheduler(src)
        if scheduler is not None:
            # Ordering barrier: datagrams queued to this link must hit
            # the wire before the request does.
            scheduler.flush_link(src, dst)
        req_id = next(self._req_ids)
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._pending[req_id] = (future, src)
        registry = obs.get_registry()
        try:
            self._run(self._write_frame(src, dst, framing.KIND_REQUEST,
                                        req_id, bytes(payload)),
                      self.connect_timeout)
        except (NetworkError, OSError) as exc:
            self._pending.pop(req_id, None)
            raise NetworkError(
                f"request from {src!r} to {dst!r} was dropped: {exc}") from exc
        registry.incr("net.tcp.frames_sent")
        registry.incr("net.tcp.bytes_sent", len(payload))
        try:
            response = _reply(future, self.request_timeout)
        except concurrent.futures.TimeoutError as exc:
            self._pending.pop(req_id, None)
            raise NetworkError(
                f"request from {src!r} to {dst!r} timed out after "
                f"{self.request_timeout}s") from exc
        # Response leg through the same chain: taps see the answer,
        # interceptors may tamper with or drop it, like the simulator's
        # second _through_adversaries pass inside request().
        back = self._through_adversaries(
            Frame(src=dst, dst=src, payload=response,
                  sent_at=self.clock.now))
        if back is None:
            raise NetworkError(
                f"response from {dst!r} to {src!r} was dropped")
        return back.payload

    def unregister(self, address: str) -> None:
        """Drop an endpoint and drain everything attached to it.

        Flushes its link queues, then closes its listening socket, every
        inbound connection, every pooled outbound connection it
        originated, and fails its pending requests — so a closed
        endpoint can never leak connections.  Its actor runs the
        ``on_close`` hooks of those connections and then stops; the
        call waits for it unless made on that actor's own thread.
        """
        scheduler = self._scheduler(address)
        if scheduler is not None:
            scheduler.flush_for(address)
        with self._lock:
            state = self._endpoints.pop(address, None)
            self._directory.pop(address, None)
        if state is None:
            return
        if self._loop is not None and self._loop.is_running():
            try:
                self._run(self._teardown_endpoint(address, state),
                          _SHUTDOWN_GRACE)
            except NetworkError:
                pass
        for req_id, (future, owner) in list(self._pending.items()):
            if owner == address and not future.done():
                self._pending.pop(req_id, None)
                future.set_exception(NetworkError(
                    f"endpoint {address!r} closed with the request in flight"))
        state.actor.mailbox.put(None)
        if getattr(_CURRENT, "actor", None) is not state.actor:
            state.actor.thread.join(_SHUTDOWN_GRACE)
        obs.get_registry().set_gauge("net.tcp.endpoints", len(self._endpoints))

    async def _teardown_endpoint(self, address: str,
                                 state: _EndpointState) -> None:
        if state.server is not None:
            state.server.close()
            await state.server.wait_closed()
        # Each reader posts its on_close hook as it ends, so the hooks
        # are queued before the actor's stop.
        readers = list(state.inbound)
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for key, conn in list(self._conns.items()):
            if key[0] == address:
                if conn.reader_task is not None:
                    conn.reader_task.cancel()
                conn.writer.close()
                self._conns.pop(key, None)

    async def _drain_tasks(self) -> None:
        tasks = [task for task in asyncio.all_tasks()
                 if task is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def close(self) -> None:
        """Tear down every endpoint, its actor, and the event loop."""
        with self._lock:
            if self._closed:
                return
            addresses = list(self._endpoints)
        for address in addresses:
            self.unregister(address)
        with self._lock:
            loop, thread = self._loop, self._thread
        if loop is not None and loop.is_running():
            # Let cancelled reader tasks run their finally blocks
            # while the loop is still alive, so no coroutine is finalized
            # against a closed loop at GC time.
            try:
                self._run(self._drain_tasks(), _SHUTDOWN_GRACE)
            except NetworkError:
                pass
        with self._lock:
            self._closed = True
            self._loop = self._thread = None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(_SHUTDOWN_GRACE)
            loop.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
