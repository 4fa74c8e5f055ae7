"""Population-scale adversaries for the scenario engine.

The :mod:`repro.attacks` modules model the paper's §2.3 threats one
connection at a time; these classes run the same threat models at
population scale, as engine-steppable actors on the
:class:`~repro.net.base.Transport` contract:

* :class:`SybilFlood` — a storm of forged identities against node-id
  assignment and login.  Against the secure stack every identity dies
  on the CBID check (``fn.secure_login.cbid_mismatch``) — and cheaply
  for the attacker too: the CBID is checked *before* the signature, so
  one signed document re-sealed per forged ``PeerId`` suffices, no sid
  and no per-identity signing.  Against the plain stack one stolen
  credential mints as many sessions as the attacker has addresses (the
  vulnerability, demonstrated).
* :class:`EclipseAttack` — route capture against the federation ring: a
  rogue roster pushed over ``fed_link_req``/``fed_members``.  The plain
  federation merges anything (``authorize`` is identity-free) and the
  rogues capture their share of the id space; the secure federation
  rejects the unsigned frames (``fed.reject.unsigned``) and the ring
  stays clean.  Capture is measured with
  :meth:`EclipseAttack.captured_fraction` by sampling ring ownership.
* :class:`FrameStorm` — replays the :mod:`repro.wire.fuzz` mutation
  corpus (the same one the wire tests use) against broker endpoints,
  checking the ``wire.reject.*`` taxonomy absorbs every frame before
  any handler runs.

An adversary's lifecycle is ``attach(ctx)`` → ``step(ctx)``×N →
``detach(ctx)`` → ``summary()``; the context is the engine's
:class:`~repro.scenario.engine.EngineContext`.
"""

from __future__ import annotations

from collections import Counter

from repro.core import secure_login as sl
from repro.core.keystore import Keystore
from repro.errors import NetworkError, ReproError
from repro.jxta.advertisements import PeerAdvertisement
from repro.jxta.ids import parse_id
from repro.jxta.messages import Message
from repro.xmllib import Element
from repro.wire import REGISTRY
from repro.wire.fuzz import mutations

__all__ = ["Adversary", "SybilFlood", "EclipseAttack", "FrameStorm"]


class Adversary:
    """Base lifecycle for an engine-driven attacker."""

    name = "adversary"

    def attach(self, ctx) -> None:
        """Acquire targets and build attack material (called once/phase)."""

    def step(self, ctx) -> None:
        """Emit one burst of attack traffic (called per engine tick)."""

    def detach(self, ctx) -> None:
        """Release any installed hooks."""

    def summary(self) -> dict:
        """What happened, for the phase report."""
        return {}


class SybilFlood(Adversary):
    """Forged-identity storm against node-id assignment and login."""

    name = "sybil_flood"

    def __init__(self, identities: int = 64, per_step: int = 16,
                 attacker_address: str = "attacker:sybil",
                 stolen_user: str | None = None,
                 stolen_password: str | None = None,
                 malformed_every: int = 5, rsa_bits: int = 512) -> None:
        self.identities = identities
        self.per_step = per_step
        self.attacker_address = attacker_address
        self.stolen_user = stolen_user
        self.stolen_password = stolen_password
        self.malformed_every = malformed_every
        self.rsa_bits = rsa_bits
        self.attempts = 0
        self.accepted = 0
        self.responses: Counter = Counter()
        self._requests: list[Message] = []

    def attach(self, ctx) -> None:
        self.target = next(iter(ctx.brokers.values()))
        rng = ctx.rng.fork(b"sybil")
        self._requests = []
        if hasattr(self.target, "keystore"):
            self._build_secure_storm(ctx, rng)
        else:
            self._build_plain_storm(rng)

    def _build_secure_storm(self, ctx, rng) -> None:
        # One keypair + one signed document for the whole storm; the
        # broker checks CBID-vs-key before the signature, so forging the
        # PeerId only costs the attacker one public-key seal per sybil.
        keys = Keystore.generate(self.rsa_bits, rng.fork(b"keys")).keys
        broker_pub = self.target.keystore.keys.public
        policy = ctx.policy
        doc = sl.build_login_document(
            self.stolen_user or "sybil", self.stolen_password or "hunter2",
            keys, peer_name="sybil", peer_address=self.attacker_address,
            scheme=policy.signature_scheme, drbg=rng.fork(b"sign"))
        true_id = doc.find("PeerId").text
        for i in range(self.identities):
            if self.malformed_every and i % self.malformed_every == 0:
                junk = Message(sl.LOGIN_REQ)
                junk.add_json("envelope", {"v": 1, "junk": i})
                self._requests.append(junk)
                continue
            forged = self._clone_with_peer_id(doc, true_id[:-8] + f"{i:08x}")
            self._requests.append(sl.seal_login_request(
                forged, sid=f"{i:032x}", broker_key=broker_pub,
                suite=policy.envelope_suite, wrap=policy.envelope_wrap,
                drbg=rng.fork(b"seal|%d" % i)))

    def _build_plain_storm(self, rng) -> None:
        # Plain stack: one sniffed credential, N forged advertisements.
        for i in range(self.identities):
            adv = PeerAdvertisement(
                peer_id=parse_id(f"urn:jxta:uuid-{0xFACE:016x}{i:016x}",
                                 "peer"),
                name=f"sybil-{i}", address=f"{self.attacker_address}:{i}")
            req = Message("login_req")
            req.add_text("username", self.stolen_user or "sybil")
            req.add_text("password", self.stolen_password or "hunter2")
            req.add_xml("peer_adv", adv.to_element())
            self._requests.append(req)

    @staticmethod
    def _clone_with_peer_id(doc: Element, peer_id: str) -> Element:
        clone = doc.deep_copy()
        clone.find("PeerId").text = peer_id
        return clone

    def step(self, ctx) -> None:
        burst, self._requests = (self._requests[:self.per_step],
                                 self._requests[self.per_step:])
        for req in burst:
            self.attempts += 1
            try:
                raw = ctx.network.request(self.attacker_address,
                                          self.target.address, req.to_wire())
                msg_type = Message.from_wire(raw).msg_type
            except ReproError:
                msg_type = "no_response"
            self.responses[msg_type] += 1
            if msg_type in ("login_ok", sl.LOGIN_OK):
                self.accepted += 1

    def summary(self) -> dict:
        return {"attempts": self.attempts, "accepted": self.accepted,
                "rejected": self.attempts - self.accepted,
                "responses": dict(self.responses)}


class EclipseAttack(Adversary):
    """Route capture: poison the federation ring with rogue brokers."""

    name = "eclipse"

    def __init__(self, rogues: int = 8, per_step: int = 2,
                 prefix: str = "eclipse:rogue", samples: int = 64) -> None:
        self.rogues = rogues
        self.per_step = per_step
        self.prefix = prefix
        self.samples = samples
        self.link_attempts = 0
        self.link_ok = 0
        self._targets: list = []
        self._cursor = 0

    def rogue_addresses(self) -> list[str]:
        return [f"{self.prefix}:{i}" for i in range(self.rogues)]

    def attach(self, ctx) -> None:
        self._targets = list(ctx.brokers.values())
        # Rogues must be reachable: the victim's link handler gossips and
        # syncs back at whatever roster it accepted.
        for address in self.rogue_addresses():
            try:
                ctx.network.register(address, lambda frame: None)
            except NetworkError:
                pass  # already attached in an earlier phase

    def _poison_roster(self) -> list[dict]:
        return [{"address": addr, "broker_id": f"urn:jxta:uuid-{i:032x}",
                 "name": f"rogue-{i}"}
                for i, addr in enumerate(self.rogue_addresses())]

    def step(self, ctx) -> None:
        for _ in range(self.per_step):
            target = self._targets[self._cursor % len(self._targets)]
            rogue = self.rogue_addresses()[self._cursor % self.rogues]
            self._cursor += 1
            req = Message("fed_link_req")
            req.add_json("members", self._poison_roster())
            self.link_attempts += 1
            try:
                raw = ctx.network.request(rogue, target.address,
                                          req.to_wire())
                if raw is not None and \
                        Message.from_wire(raw).msg_type == "fed_link_ok":
                    self.link_ok += 1
            except ReproError:
                continue

    def captured_fraction(self, ctx) -> float:
        """Share of the id space the rogues own, averaged over brokers."""
        rogues = set(self.rogue_addresses())
        captured = total = 0
        for broker in ctx.brokers.values():
            for i in range(self.samples):
                owner = broker.federation.owner_of(f"probe-{i:04d}")
                total += 1
                if owner in rogues:
                    captured += 1
        return captured / total if total else 0.0

    def summary(self) -> dict:
        return {"link_attempts": self.link_attempts, "link_ok": self.link_ok,
                "rogues": self.rogues}


class FrameStorm(Adversary):
    """Malformed-frame storm from the wire mutation fuzzer."""

    name = "frame_storm"

    def __init__(self, per_step: int = 32,
                 attacker_address: str = "attacker:storm",
                 msg_types: tuple[str, ...] | None = None) -> None:
        self.per_step = per_step
        self.attacker_address = attacker_address
        self.msg_types = msg_types
        self.frames_sent = 0
        self.labels: Counter = Counter()
        self._corpus: list[tuple[str, str, bytes]] = []
        self._cursor = 0
        self._targets: list[str] = []

    def attach(self, ctx) -> None:
        self._targets = [b.address for b in ctx.brokers.values()]
        first = next(iter(ctx.brokers.values()))
        handled = set(self.msg_types
                      or first.control.endpoint.handled_types())
        self._corpus = []
        for spec in REGISTRY.values():
            if spec.msg_type not in handled:
                continue
            for label, malformed, reason in mutations(spec):
                self._corpus.append((f"{spec.msg_type}.{label}", reason,
                                     malformed.to_wire()))
        self._cursor = 0

    def step(self, ctx) -> None:
        if not self._corpus:
            return
        for _ in range(self.per_step):
            label, reason, payload = self._corpus[self._cursor
                                                  % len(self._corpus)]
            target = self._targets[self._cursor % len(self._targets)]
            self._cursor += 1
            ctx.network.send(self.attacker_address, target, payload)
            self.frames_sent += 1
            self.labels[reason] += 1

    def summary(self) -> dict:
        return {"frames_sent": self.frames_sent,
                "by_expected_reason": dict(self.labels),
                "corpus_size": len(self._corpus)}
