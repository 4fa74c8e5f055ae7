"""Adversary hooks as part of the transport contract.

The §2.3 threat surface is two hooks: **taps** passively observe every
frame and **interceptors** may rewrite, redirect or drop them.  The
attack drivers in :mod:`repro.attacks` and the fault injector in
:mod:`repro.sim.faults` are built on those two hooks, and both
backends offer them, so the same adversary code runs against either:

* :class:`~repro.sim.network.SimNetwork` runs the chain mid-wire, on
  every delivered unit (a BATCH unit is one frame to the chain);
* :class:`~repro.net.tcp.TcpTransport` applies an equivalent chain on
  its outbound path — every ``send`` datagram, the request leg before
  the socket write and the response leg after it — which covers all
  traffic whenever the processes under attack share the transport
  object (the in-process attack-evaluation setup).

:func:`adversary_surface` is the check attack code calls on whatever
backend it was handed; it returns the object to install taps and
interceptors on.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.net.base import Frame

__all__ = ["AdversarySurface", "Interceptor", "Tap", "adversary_surface"]


@runtime_checkable
class Tap(Protocol):
    """Passive observer of all frames (an eavesdropper)."""

    def observe(self, frame: Frame) -> None: ...


#: An interceptor sees a frame and returns a (possibly different) frame
#: to deliver, or ``None`` to drop it.  The returned frame's ``dst`` may
#: be rewritten, which models DNS-spoofing style redirection.
class Interceptor(Protocol):
    def __call__(self, frame: Frame) -> Frame | None: ...


class AdversarySurface:
    """Where taps and interceptors are installed, and the chain that
    runs them: every tap observes the (current) frame, then each
    interceptor may substitute or drop it.

    :class:`~repro.sim.network.SimNetwork` and
    :class:`~repro.net.tcp.TcpTransport` both inherit it, so the TCP
    backend cannot drift from the simulator.
    """

    def __init__(self) -> None:
        self._taps: list[Tap] = []
        self._interceptors: list[Interceptor] = []

    def add_tap(self, tap: Tap) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)

    def _through_adversaries(self, frame: Frame) -> Frame | None:
        for tap in self._taps:
            tap.observe(frame)
        out: Frame | None = frame
        for interceptor in self._interceptors:
            out = interceptor(out)
            if out is None:
                return None
        return out


def adversary_surface(backend) -> AdversarySurface:
    """``backend`` itself, once it is known to expose the hooks."""
    if isinstance(backend, AdversarySurface):
        return backend
    raise TypeError(
        f"{type(backend).__name__} exposes no adversary surface "
        "(add_tap/add_interceptor)")
