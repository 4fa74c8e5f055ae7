"""Span-based tracing for protocol phases.

A *span* is one timed phase of a protocol run (``secureLogin``, its
``secure_login.envelope`` child, ...).  Spans nest: entering a span while
another is open makes it a child, so a full secure join exports as one
tree per primitive invocation.  Usage::

    from repro import obs

    with obs.span("secureLogin", peer=str(peer_id)):
        with obs.span("secure_login.sign"):
            ...

Every span also records its duration into the metrics registry as the
histogram ``span.<name>.ms`` — that is how the per-phase p50/p95 columns
in ``BENCH_OBS.json`` are produced without a second instrumentation pass.

Like the rest of :mod:`repro.obs` this module is stdlib-only.  Durations
are *wall clock* (``time.perf_counter``): they measure the real crypto
and serialisation work, which is exactly what the paper's overhead
figures account; modeled network transit lives in the simulator's
virtual clock, not here.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any

from repro.obs.metrics import Registry, get_registry

#: Completed root spans retained per tracer (oldest evicted first).
DEFAULT_MAX_TRACES = 256


class Span:
    """One timed, attributed, possibly-nested phase."""

    __slots__ = ("name", "attrs", "start_ms", "end_ms", "children", "error")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ms = time.perf_counter() * 1e3
        self.end_ms: float | None = None
        self.children: list["Span"] = []
        self.error: str | None = None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": self.duration_ms,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class _NullSpanContext:
    """Shared no-op context handed out when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.error = f"{type(exc).__name__}: {exc}"
        self._tracer._finish(self._span)
        return None


class ThreadStack(threading.local):
    """A list per thread: each thread sees only what it pushed."""

    def __init__(self) -> None:
        self.items: list = []


class Tracer:
    """Builds span trees and exports them as JSON.

    ``registry=None`` follows the process default registry — both for the
    enabled/disabled switch and for the ``span.<name>.ms`` histograms.
    Open spans are per thread, so each thread builds its own trees.
    """

    def __init__(self, registry: Registry | None = None,
                 max_traces: int = DEFAULT_MAX_TRACES) -> None:
        self._registry = registry
        self._open = ThreadStack()
        self.finished: list[Span] = []
        self._max_traces = max_traces

    def _reg(self) -> Registry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def enabled(self) -> bool:
        return self._reg().enabled

    @property
    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        return self._open.items[-1] if self._open.items else None

    def span(self, name: str, **attrs: Any) -> "_SpanContext | _NullSpanContext":
        if not self._reg().enabled:
            return _NULL_SPAN
        span = Span(name, attrs)
        stack = self._open.items
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end_ms = time.perf_counter() * 1e3
        stack = self._open.items
        # Unwind to this span even if inner contexts leaked via exceptions.
        while stack:
            top = stack.pop()
            if top is span:
                break
        self._reg().observe(f"span.{span.name}.ms", span.duration_ms)
        if not stack:
            self.finished.append(span)
            if len(self.finished) > self._max_traces:
                del self.finished[:len(self.finished) - self._max_traces]

    # -- export --------------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        return [s.to_dict() for s in self.finished]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dicts(), indent=indent)

    def export(self, path: str) -> None:
        """Write every finished trace tree to ``path`` as a JSON array."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def clear(self) -> None:
        self._open.items.clear()
        self.finished.clear()


#: The process-local default tracer (follows the default registry).
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    global _TRACER
    _TRACER = tracer
    return tracer


def span(name: str, **attrs: Any):
    """Open a span on the process tracer: ``with obs.span("secureLogin"):``"""
    return _TRACER.span(name, **attrs)
