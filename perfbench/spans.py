"""Span recording at layer boundaries, from outside ``src/``.

A :class:`Recorder` wraps the public entry points of each layer where
callers look them up (the module attribute, every ``from x import f``
binding of it in the ``repro`` package, or the class attribute of a
method) and records one span per call: ``(id, parent, name, thread,
start, end, bytes, failed)``.  Times are ``time.perf_counter`` seconds,
which on Linux is CLOCK_MONOTONIC and so comparable across the driver
and the server process.

Wrappers are installed once, when tracing is switched on, and record
only while :attr:`Recorder.enabled` is set.  Inner loops
(``escape.unescape``, the ChaCha20 block function's own helpers) are
never wrapped; a call back into the layer that is already the innermost
open span on the thread adds no second span.
"""

from __future__ import annotations

import itertools
import sys
import threading
from time import perf_counter
from typing import Any, Callable

#: spans whose thread is blocked on another thread or process: they are
#: credited only with time in which no other span is running
WAITING = frozenset({"net.tcp.send", "net.tcp.request", "net.tcp.dispatch_wait"})

Size = Callable[[tuple, Any], int]


def _arg_len(index: int) -> Size:
    return lambda args, result: len(args[index])


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


#: (span name, module, function, size of the call in bytes or None)
FUNCTIONS: list[tuple[str, str, str, Size | None]] = [
    ("xmllib.parse", "repro.xmllib.parser", "parse", _arg_len(0)),
    ("xmllib.serialize", "repro.xmllib.serializer", "serialize", None),
    ("xmllib.canonicalize", "repro.xmllib.c14n", "canonicalize", None),
    ("utils.encoding.b64", "repro.utils.encoding", "b64encode", None),
    ("utils.encoding.b64", "repro.utils.encoding", "b64decode", None),
    ("wire", "repro.wire.boundary", "decode", None),
    ("crypto.aead", "repro.crypto.aead", "seal", _arg_len(2)),
    ("crypto.aead", "repro.crypto.aead", "open_", _result_len),
    ("crypto.chacha20", "repro.crypto.chacha20", "keystream", None),
    ("crypto.chacha20", "repro.crypto.chacha20", "chacha20_xor", None),
    ("crypto.chacha20", "repro.crypto.chacha20", "chacha20_block", None),
    ("crypto.poly1305", "repro.crypto.poly1305", "poly1305_mac", None),
    ("core.credentials.validate_chain", "repro.core.credentials",
     "validate_chain", None),
    ("dsig.verify", "repro.dsig.verifier", "verify_element", None),
    ("net.framing.encode", "repro.net.framing", "encode_frame", _arg_len(3)),
    ("net.framing.decode", "repro.net.framing", "decode_body", None),
]

#: (span name, module, class, method, size or None); ``self``/``cls`` is
#: ``args[0]`` for the size functions
METHODS: list[tuple[str, str, str, str, Size | None]] = [
    ("jxta.messages.encode", "repro.jxta.messages", "Message", "to_wire",
     _result_len),
    ("jxta.messages.decode", "repro.jxta.messages", "Message", "from_wire",
     _arg_len(1)),
    ("crypto.rsa.private", "repro.crypto.rsa", "PrivateKey", "decrypt_int", None),
    ("crypto.rsa.public", "repro.crypto.rsa", "PublicKey", "encrypt_int", None),
    ("crypto.rsa.public", "repro.crypto.rsa", "PublicKey", "verify_int", None),
    ("net.tcp.send", "repro.net.tcp", "TcpTransport", "send", _arg_len(3)),
    ("net.tcp.request", "repro.net.tcp", "TcpTransport", "request", _arg_len(3)),
    ("core.client", "repro.core.secure_client", "SecureClientPeer",
     "secure_connect", None),
    ("core.client", "repro.core.secure_client", "SecureClientPeer",
     "secure_login", None),
    ("core.client", "repro.core.secure_client", "SecureClientPeer",
     "secure_msg_peer", None),
    ("core.client", "repro.core.secure_client", "SecureClientPeer",
     "secure_msg_peer_group", None),
]


class Recorder:
    """In-memory spans of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, size: Size | None = None) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            nbytes, failed = 0, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                # a datagram send or a secure send reports failure as False
                failed = result is False
                if size is not None:
                    nbytes = size(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, threading.get_ident(),
                                       start, end, nbytes, failed))

        traced.__wrapped__ = fn
        return traced

    def record_wait(self, start: float, end: float) -> None:
        """A frame's wait between the socket read and its handler; it
        occupies no thread, so it gets a thread key of its own."""
        span_id = next(self._ids)
        self.spans.append((span_id, 0, "net.tcp.dispatch_wait", -span_id,
                           start, end, 0, False))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`FUNCTIONS` and :data:`METHODS`."""
        if self._installed:
            return
        self._installed = True
        modules = [module for name, module in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for name, module_name, attr, size in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for name, module_name, cls_name, attr, size in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__, size))
            else:
                replacement = self.wrap(name, raw, size)
            # aliases such as ``PrivateKey.sign_int = decrypt_int``
            for key, value in list(vars(cls).items()):
                if value is raw:
                    setattr(cls, key, replacement)

    def hook_transport(self, net, span_of: Callable[[str], str]) -> None:
        """Wrap every handler later passed to ``net.register``.

        The wrapper records the frame's dispatch wait — from
        ``Frame.sent_at``, stamped on the loop thread when the frame was
        read, to the handler's start — and a span named
        ``span_of(address)`` around the handler itself.
        """
        register = net.register
        recorder = self

        def traced_register(address, handler, **hooks):
            inner = recorder.wrap(span_of(address), handler)

            def dispatch(frame):
                if recorder.enabled:
                    now = perf_counter()
                    waited = net.clock.now - frame.sent_at
                    recorder.record_wait(now - waited, now)
                return inner(frame)

            return register(address, dispatch, **hooks)

        net.register = traced_register
