"""Real time behind the :class:`~repro.net.base.TransportClock` surface.

The simulator charges network transit and measured CPU work to a
virtual clock; on a socket backend time simply passes.  ``WallClock``
keeps the exact same method surface so retry backoff, timeout budgets,
credential validity windows and circuit breakers run unchanged — the
only behavioural difference is that :meth:`advance` (retry backoff)
really sleeps, and :meth:`cpu_section` measures without advancing
anything (the wall does that on its own).

``now`` is the host's ``time.monotonic()``, with no per-instance zero:
every transport on one host, in any process, reads the same clock, so a
credential one process issues with ``not_before = now`` is already valid
in every other.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class WallClock:
    """Host-wide monotonic wall time."""

    def __init__(self) -> None:
        self.cpu_scale = 1.0
        #: cumulative seconds *accounted* as CPU work (informational)
        self.cpu_time = 0.0
        #: cumulative seconds *accounted* as network transit (informational)
        self.network_time = 0.0

    @property
    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> float:
        """A requested wait (retry backoff) really sleeps."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        if seconds:
            time.sleep(seconds)
        return self.now

    def advance_network(self, seconds: float) -> float:
        """Transit time needs no modeling on a real link; account only."""
        self.network_time += seconds
        return self.now

    def charge_cpu(self, seconds: float) -> float:
        """CPU work already took real time; account only."""
        scaled = seconds * self.cpu_scale
        self.cpu_time += scaled
        return self.now

    @contextmanager
    def cpu_section(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.charge_cpu(time.perf_counter() - t0)

    def reset(self) -> None:
        """Clear the accounting; ``now`` stays on the host clock."""
        self.cpu_time = 0.0
        self.network_time = 0.0
