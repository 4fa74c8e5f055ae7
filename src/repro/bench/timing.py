"""Measuring protocol operations in simulated time.

The model (see :mod:`repro.sim.clock`): an operation's virtual duration is

    T = wall_cpu * cpu_scale + network_time

where ``wall_cpu`` is the *measured* real time of the synchronous call
(all crypto on both sides executes in-process during the call) and
``network_time`` is the modeled link transit accumulated by the simulated
network during the call.  ``cpu_scale`` lets experiments impersonate
slower hosts (the paper used a 1.2 GHz Pentium M).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class OpTiming:
    """One measured operation."""

    wall_cpu_s: float
    network_s: float
    cpu_scale: float

    @property
    def total_s(self) -> float:
        return self.wall_cpu_s * self.cpu_scale + self.network_s


def timed_call(network: SimNetwork, fn: Callable[[], object],
               cpu_scale: float = 1.0, name: str | None = None) -> OpTiming:
    """Run ``fn`` and split its cost into CPU and modeled network time.

    Passing ``name`` additionally records the virtual total as a
    ``bench.<name>.total_ms`` histogram in the observability registry, so
    experiment samples land in ``BENCH_OBS.json`` alongside the
    per-primitive metrics.
    """
    net0 = network.clock.network_time
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    timing = OpTiming(
        wall_cpu_s=wall,
        network_s=network.clock.network_time - net0,
        cpu_scale=cpu_scale,
    )
    if name is not None:
        _record(name, timing)
    return timing


def _record(name: str, timing: OpTiming) -> None:
    obs.get_registry().observe(f"bench.{name}.total_ms", timing.total_s * 1e3)


def repeat_timed(network: SimNetwork, fn: Callable[[], object],
                 repeats: int, cpu_scale: float = 1.0,
                 warmup: int = 1, name: str | None = None) -> list[OpTiming]:
    """Warm up (JIT-ish caches, advertisement validation) then measure."""
    for _ in range(warmup):
        fn()
    return [timed_call(network, fn, cpu_scale, name=name)
            for _ in range(repeats)]


def fastest_interleaved(ops: list[tuple[SimNetwork, Callable[[], object]]],
                        rounds: int, cpu_scale: float = 1.0,
                        names: list[str | None] | None = None
                        ) -> list[OpTiming]:
    """The fastest of ``rounds`` timings of each ``(network, fn)`` op.

    Every round calls the ops in turn, so a change in host speed hits
    all of them alike, and the fastest of several calls is not one
    scheduler hiccup.  Only the kept timings are recorded under
    ``names``.
    """
    kept: list[OpTiming | None] = [None] * len(ops)
    for _ in range(rounds):
        for i, (network, fn) in enumerate(ops):
            timing = timed_call(network, fn, cpu_scale)
            if kept[i] is None or timing.total_s < kept[i].total_s:
                kept[i] = timing
    for name, timing in zip(names or (), kept):
        if name is not None:
            _record(name, timing)
    return kept


#: calls per side behind each :func:`paired_timed` sample
PAIRED_BEST_OF = 9


def paired_timed(a: tuple[SimNetwork, Callable[[], object]],
                 b: tuple[SimNetwork, Callable[[], object]],
                 repeats: int, cpu_scale: float = 1.0,
                 names: tuple[str | None, str | None] = (None, None)
                 ) -> tuple[list[OpTiming], list[OpTiming]]:
    """Measure two operations whose ratio is the result, as ``(a, b)``.

    After one warm-up call each, calls alternate a, b, a, b, ... and each
    of the ``repeats`` samples per side is the fastest of
    :data:`PAIRED_BEST_OF` calls.  A change in host load then hits both
    sides alike instead of skewing their ratio, and a sub-millisecond
    sample is not one scheduler hiccup.  Only the kept samples are
    recorded under ``names``.
    """
    for _network, fn in (a, b):
        fn()
    kept = [fastest_interleaved([a, b], PAIRED_BEST_OF, cpu_scale, names)
            for _ in range(repeats)]
    return [k[0] for k in kept], [k[1] for k in kept]


def mean_total(timings: list[OpTiming]) -> float:
    return sum(t.total_s for t in timings) / len(timings) if timings else 0.0


def overhead_pct(secure_s: float, plain_s: float) -> float:
    """The paper's metric: extra cost of the secure variant, in percent."""
    if plain_s <= 0:
        raise ValueError("plain baseline duration must be positive")
    return (secure_s - plain_s) / plain_s * 100.0
