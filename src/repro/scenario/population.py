"""Population models: cohorts, arrival processes and scripted actors.

The paper's deployment (§5) is a campus overlay where thousands of
client peers join, chat and churn against a handful of brokers.  This
module scales that population model far past what full client stacks
can simulate in one process: a cohort describes *how many* peers arrive
and *when* (ramp, Poisson, flash crowd, diurnal curve), and each member
is a :class:`ScriptedActor` — a username, a key-less peer identity and
a registered network address, nothing more.

Two admission paths, mixed per cohort by ``wire_fraction``:

* **wire** — a real ``login_req``/``logout_req`` round trip through the
  transport, exercising the broker's full authentication, group fan-out
  and federation presence path;
* **bulk** — :meth:`repro.overlay.broker.Broker.bulk_admit`, which
  installs identical session/group/index state but models a join whose
  gossip already converged.  This is what keeps 100k actors across an
  8-broker ring tractable: state is real, per-member broadcast storms
  are not replayed.

Everything draws from forked :class:`~repro.crypto.drbg.HmacDrbg`
streams, so a population is a pure function of the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.crypto.drbg import HmacDrbg
from repro.errors import NetworkError, ReproError
from repro.jxta.advertisements import PeerAdvertisement
from repro.jxta.ids import parse_id
from repro.jxta.messages import Message
from repro.net.base import Transport

__all__ = [
    "ArrivalProcess",
    "UniformRamp",
    "PoissonArrivals",
    "FlashCrowd",
    "DiurnalCurve",
    "zipf_group_sizes",
    "Cohort",
    "ScriptedActor",
    "ChurnStorm",
    "ActorPool",
]


# -- arrival processes -------------------------------------------------------


class ArrivalProcess:
    """When a cohort's members show up inside a phase.

    ``offsets`` returns ``n`` sorted arrival times in ``[0, duration)``
    seconds from the phase start, deterministic from the DRBG stream.
    """

    def offsets(self, n: int, duration: float, rng: HmacDrbg) -> list[float]:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformRamp(ArrivalProcess):
    """Evenly paced arrivals — the steady enrollment baseline."""

    def offsets(self, n: int, duration: float, rng: HmacDrbg) -> list[float]:
        if n <= 0:
            return []
        return [duration * (i + 0.5) / n for i in range(n)]


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals; ``rate_per_s`` defaults to ``n / duration``.

    Draws exponential inter-arrival gaps; arrivals past the phase end
    are clamped to it (they still happen, in a terminal burst), so the
    cohort size is exact.
    """

    rate_per_s: float | None = None

    def offsets(self, n: int, duration: float, rng: HmacDrbg) -> list[float]:
        if n <= 0:
            return []
        rate = self.rate_per_s if self.rate_per_s else n / max(duration, 1e-9)
        t, out = 0.0, []
        for _ in range(n):
            t += -math.log(1.0 - rng.uniform()) / rate
            out.append(min(t, duration))
        return out


@dataclass(frozen=True)
class FlashCrowd(ArrivalProcess):
    """Everyone piles in around one instant (``at`` as a phase fraction).

    Models the paper's lecture-start spike: a burst of width
    ``width`` × duration centred on ``at`` × duration.
    """

    at: float = 0.5
    width: float = 0.05

    def offsets(self, n: int, duration: float, rng: HmacDrbg) -> list[float]:
        centre = self.at * duration
        spread = max(self.width * duration, 1e-9)
        out = [min(max(centre + (rng.uniform() - 0.5) * spread, 0.0),
                   duration) for _ in range(n)]
        return sorted(out)


@dataclass(frozen=True)
class DiurnalCurve(ArrivalProcess):
    """Arrival density following ``peaks`` sinusoidal busy periods.

    Rejection-samples against ``(1 - cos(2π·peaks·t/T)) / 2`` — two
    uniform draws per accepted arrival in expectation, deterministic
    from the stream.
    """

    peaks: int = 1

    def offsets(self, n: int, duration: float, rng: HmacDrbg) -> list[float]:
        out: list[float] = []
        while len(out) < n:
            t = rng.uniform() * duration
            density = (1.0 - math.cos(2.0 * math.pi * self.peaks * t
                                      / max(duration, 1e-9))) / 2.0
            if rng.uniform() < density:
                out.append(t)
        return sorted(out)


# -- group assignment --------------------------------------------------------


def zipf_group_sizes(members: int, n_groups: int, exponent: float = 1.1,
                     cap: int | None = 256) -> list[int]:
    """Group sizes following a Zipf law over group rank.

    Real overlay groups are heavy-tailed: a few large course groups,
    a long tail of tiny project ones.  ``cap`` bounds the largest group
    so join/leave fan-out stays sub-quadratic at population scale.
    Returns ``n_groups`` sizes summing to at most ``members`` (each
    membership slot is used at most once — actors join one group here).
    """
    if n_groups <= 0 or members <= 0:
        return []
    weights = [1.0 / (rank ** exponent) for rank in range(1, n_groups + 1)]
    total = sum(weights)
    sizes = [int(members * w / total) for w in weights]
    if cap is not None:
        sizes = [min(s, cap) for s in sizes]
    return sizes


# -- cohorts and actors ------------------------------------------------------


@dataclass(frozen=True)
class Cohort:
    """One homogeneous slice of the population.

    ``wire_fraction`` of members join through the real login wire
    exchange; the rest are bulk-admitted.  ``groups`` names the group
    pool this cohort draws memberships from, ``group_exponent``/
    ``group_cap`` shape the Zipf assignment (members beyond the summed
    group sizes stay groupless, like most real peers).
    """

    name: str
    size: int
    arrivals: ArrivalProcess = UniformRamp()
    groups: tuple[str, ...] = ()
    wire_fraction: float = 0.0
    group_exponent: float = 1.1
    group_cap: int | None = 256
    password: str = "pw"


@dataclass
class ScriptedActor:
    """The lightweight stand-in for one client peer."""

    username: str
    password: str
    address: str
    peer_id: str
    home: str                 # broker address the session targets
    cohort: str
    wire: bool = False        # joins/leaves via the real login exchange
    joined: bool = False


@dataclass(frozen=True)
class ChurnStorm:
    """A burst of leave/rejoin cycles inside one phase.

    ``count`` actors (drawn from the joined population) drop within the
    first ``leave_window`` fraction of the phase and, when ``rejoin``
    is set, come back ``downtime_s`` later.  Wire actors churn through
    real ``logout_req``/``login_req`` exchanges.
    """

    count: int
    rejoin: bool = True
    downtime_s: float = 2.0
    leave_window: float = 0.6


class ActorPool:
    """Provision, join and churn scripted actors against live brokers.

    The pool registers one shared sink handler per actor address (so
    broker pushes — ``peer_joined``, ``info_push`` — are deliverable),
    owns the per-actor join bookkeeping, and exposes the joined set for
    churn sampling.  Works against any transport (the simulator at
    population scale; sockets for small wire-parity tests).
    """

    def __init__(self, backend: Transport, brokers, admin, rng: HmacDrbg) -> None:
        self.backend = backend
        self.brokers = list(brokers)
        self.admin = admin
        self.rng = rng
        self.actors: list[ScriptedActor] = []
        self.by_cohort: dict[str, list[ScriptedActor]] = {}
        self.cohorts: dict[str, Cohort] = {}
        self.stats = {"wire_joins": 0, "bulk_joins": 0, "wire_leaves": 0,
                      "bulk_leaves": 0, "join_failures": 0}
        self._serial = 0

    # -- provisioning ------------------------------------------------------

    def provision(self, cohort: Cohort) -> list[ScriptedActor]:
        """Register ``cohort.size`` users and build their actors.

        Deterministic: usernames, peer ids, home brokers and group
        memberships derive from the pool's DRBG stream and the running
        serial, never from iteration order of any set.
        """
        rng = self.rng.fork(b"cohort|" + cohort.name.encode())
        group_plan: list[str] = []
        for name, size in zip(cohort.groups,
                              zipf_group_sizes(cohort.size, len(cohort.groups),
                                               cohort.group_exponent,
                                               cohort.group_cap)):
            group_plan.extend([name] * size)
        members: list[ScriptedActor] = []
        for i in range(cohort.size):
            serial = self._serial
            self._serial += 1
            username = f"{cohort.name}-{serial:06d}"
            address = f"actor:{cohort.name}:{serial}"
            peer_id = f"urn:jxta:uuid-{serial:032x}"
            groups = {group_plan[i]} if i < len(group_plan) else set()
            self.admin.register_user(username, cohort.password, groups)
            home = self.brokers[serial % len(self.brokers)]
            actor = ScriptedActor(
                username=username, password=cohort.password, address=address,
                peer_id=peer_id, home=home.address, cohort=cohort.name,
                wire=rng.uniform() < cohort.wire_fraction)
            self.backend.register(address, _actor_sink)
            members.append(actor)
        self.actors.extend(members)
        self.by_cohort.setdefault(cohort.name, []).extend(members)
        self.cohorts[cohort.name] = cohort
        return members

    # -- join / leave ------------------------------------------------------

    def join(self, actor: ScriptedActor) -> bool:
        if actor.joined:
            return True
        broker = self._home(actor)
        if actor.wire:
            ok = self._wire_join(actor, broker)
            self.stats["wire_joins" if ok else "join_failures"] += 1
        else:
            broker.bulk_admit(actor.peer_id, actor.username, actor.address)
            self.stats["bulk_joins"] += 1
            ok = True
        actor.joined = ok
        return ok

    def leave(self, actor: ScriptedActor) -> bool:
        if not actor.joined:
            return False
        broker = self._home(actor)
        if actor.wire:
            try:
                self.backend.request(actor.address, broker.address,
                                     Message("logout_req").to_wire())
            except NetworkError:
                pass
            self.stats["wire_leaves"] += 1
        else:
            broker.bulk_evict(actor.address)
            self.stats["bulk_leaves"] += 1
        actor.joined = False
        return True

    def joined_actors(self) -> list[ScriptedActor]:
        return [a for a in self.actors if a.joined]

    def pending_actors(self, cohort: str | None = None) -> list[ScriptedActor]:
        pool = self.by_cohort.get(cohort, []) if cohort else self.actors
        return [a for a in pool if not a.joined]

    def active_count(self) -> int:
        return sum(len(b.connected) for b in self.brokers)

    # -- internals ---------------------------------------------------------

    def _home(self, actor: ScriptedActor):
        for broker in self.brokers:
            if broker.address == actor.home:
                return broker
        raise ReproError(f"actor {actor.username!r} has unknown home "
                         f"{actor.home!r}")

    def _wire_join(self, actor: ScriptedActor, broker) -> bool:
        adv = PeerAdvertisement(peer_id=parse_id(actor.peer_id, "peer"),
                                name=actor.username, address=actor.address)
        req = Message("login_req")
        req.add_text("username", actor.username)
        req.add_text("password", actor.password)
        req.add_xml("peer_adv", adv.to_element())
        try:
            raw = self.backend.request(actor.address, broker.address,
                                       req.to_wire())
            return Message.from_wire(raw).msg_type == "login_ok"
        except ReproError:
            return False


def _actor_sink(frame) -> None:
    """Shared receive handler: scripted actors accept pushes silently."""
    return None
