"""The primitive catalogue and invocation bookkeeping.

JXTA-Overlay exposes its functionality as *primitives* (invoked by client
applications) whose messages trigger *functions* on brokers and peers.
The paper (section 6) counts about 122 primitives; this reproduction
implements the sets the paper discusses — discovery, messenger, group,
file-sharing and (as the announced further work) executable primitives —
plus their secure variants.

The :func:`primitive` decorator tags Client Module methods, records
invocations in the peer's metrics, and lets the test-suite and
documentation enumerate exactly what is offered.  It is also the
per-primitive observability choke point: every invocation records
``overlay.<primitive>.calls`` / ``.errors``, a wall-clock
``.latency_ms`` histogram, and — because the simulator is synchronous —
exact per-invocation ``.bytes_sent`` / ``.frames_sent`` attribution
taken as deltas of the global network counters.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro import obs
from repro.obs.trace import ThreadStack

F = TypeVar("F", bound=Callable)

#: name -> descriptor of every registered primitive
CATALOGUE: dict[str, "PrimitiveInfo"] = {}

#: per thread, the stack of primitives currently executing (on sockets
#: application and endpoint threads run primitives at the same time)
_ACTIVE = ThreadStack()


def current_primitive() -> str | None:
    """Name of the calling thread's innermost executing primitive, if any.

    The retry runner in :mod:`repro.overlay.policy` uses this to
    attribute ``overlay.<primitive>.retries`` without every call site
    having to thread its own name through the policy layer.
    """
    return _ACTIVE.items[-1] if _ACTIVE.items else None


@dataclass(frozen=True)
class PrimitiveInfo:
    name: str
    category: str          # discovery | messenger | group | file | executable
    secure: bool           # is this the secured variant?
    doc: str


def primitive(category: str, secure: bool = False) -> Callable[[F], F]:
    """Register a Client Module method as a JXTA-Overlay primitive."""

    def decorate(func: F) -> F:
        info = PrimitiveInfo(
            name=func.__name__,
            category=category,
            secure=secure,
            doc=(func.__doc__ or "").strip().splitlines()[0] if func.__doc__ else "",
        )
        CATALOGUE[info.name] = info

        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            self.metrics.incr(f"primitive.{info.name}")
            registry = obs.get_registry()
            _ACTIVE.items.append(info.name)
            try:
                if not registry.enabled:
                    return func(self, *args, **kwargs)
                registry.incr(f"overlay.{info.name}.calls")
                bytes0 = registry.counter("net.bytes_sent").value
                frames0 = registry.counter("net.frames_sent").value
                t0 = time.perf_counter()
                try:
                    return func(self, *args, **kwargs)
                except Exception:
                    registry.incr(f"overlay.{info.name}.errors")
                    raise
                finally:
                    registry.observe(f"overlay.{info.name}.latency_ms",
                                     (time.perf_counter() - t0) * 1e3)
                    registry.observe(
                        f"overlay.{info.name}.bytes_sent",
                        registry.counter("net.bytes_sent").value - bytes0)
                    registry.observe(
                        f"overlay.{info.name}.frames_sent",
                        registry.counter("net.frames_sent").value - frames0)
            finally:
                _ACTIVE.items.pop()

        wrapper.primitive_info = info  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def catalogue_by_category() -> dict[str, list[PrimitiveInfo]]:
    out: dict[str, list[PrimitiveInfo]] = {}
    for info in CATALOGUE.values():
        out.setdefault(info.category, []).append(info)
    for infos in out.values():
        infos.sort(key=lambda i: i.name)
    return out


def secure_variants() -> dict[str, PrimitiveInfo]:
    return {n: i for n, i in CATALOGUE.items() if i.secure}
