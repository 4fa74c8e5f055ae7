"""The paper's experiments (E1, E2) and the DESIGN.md ablations (A1-A4).

Every function returns plain data structures; ``repro.bench.report``
renders them as the tables/series the paper prints.  See DESIGN.md
section 4 for the experiment index and EXPERIMENTS.md for paper-vs-
measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.bench import fixtures
from repro.bench.baselines import CbjxEchoPair, TlsClientDriver, TlsEchoServer
from repro.bench.timing import (
    fastest_interleaved,
    mean_total,
    overhead_pct,
    paired_timed,
    repeat_timed,
    timed_call,
)
from repro.core.policy import DEFAULT_POLICY, SecurityPolicy
from repro.crypto.drbg import HmacDrbg
from repro.sim.latency import LAN_2009, LinkModel

#: the value reported in §5 for the secureConnection+secureLogin overhead
PAPER_JOIN_OVERHEAD_PCT = 81.76


# ===========================================================================
# E1 — join overhead (§5, "81.76%")
# ===========================================================================

@dataclass
class JoinOverheadResult:
    plain_s: float
    secure_s: float
    overhead_pct: float
    paper_overhead_pct: float = PAPER_JOIN_OVERHEAD_PCT
    link_name: str = "lan2009"
    cpu_scale: float = 1.0
    rsa_bits: int = 1024


def join_overhead(policy: SecurityPolicy = DEFAULT_POLICY,
                  link: LinkModel = LAN_2009, link_name: str = "lan2009",
                  repeats: int = 3, cpu_scale: float = 1.0) -> JoinOverheadResult:
    """E1: time to join the network, plain connect+login vs
    secureConnection+secureLogin.

    Every repetition builds a fresh world (joins are one-shot by nature);
    key generation is excluded via cached keys, matching the paper's setup
    where keys exist before the join is timed.
    """
    plain_times = []
    secure_times = []
    for r in range(repeats):
        net, broker, clients = fixtures.build_plain_world(
            n_clients=1, link=link, seed=b"e1-plain-%d" % r)
        client = clients[0]

        def plain_join():
            client.connect("broker:0")
            client.login("user0", "pw0")

        plain_times.append(timed_call(net, plain_join, cpu_scale,
                                      name="e1.plain_join"))

        snet, admin, sbroker, sclients = fixtures.build_secure_world(
            n_clients=1, link=link, policy=policy, seed=b"e1-sec-%d" % r)
        sclient = sclients[0]

        def secure_join():
            sclient.secure_connect("broker:0")
            sclient.secure_login("user0", "pw0")

        secure_times.append(timed_call(snet, secure_join, cpu_scale,
                                       name="e1.secure_join"))

    plain_s = mean_total(plain_times)
    secure_s = mean_total(secure_times)
    return JoinOverheadResult(
        plain_s=plain_s, secure_s=secure_s,
        overhead_pct=overhead_pct(secure_s, plain_s),
        link_name=link_name, cpu_scale=cpu_scale, rsa_bits=policy.rsa_bits)


# ===========================================================================
# E2 — Figure 2: secureMsgPeer overhead vs data length
# ===========================================================================

@dataclass
class MsgOverheadPoint:
    size_bytes: int
    plain_s: float
    secure_s: float
    overhead_pct: float


@dataclass
class MsgOverheadCurve:
    points: list[MsgOverheadPoint] = field(default_factory=list)
    link_name: str = "lan2009"
    cpu_scale: float = 1.0
    rsa_bits: int = 1024

    def monotone_decreasing_tail(self) -> bool:
        """Figure 2's qualitative claim: overhead falls as size grows."""
        pct = [p.overhead_pct for p in self.points]
        return all(b <= a * 1.10 for a, b in zip(pct, pct[1:])) and pct[-1] < pct[0]


DEFAULT_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)


def msg_overhead_curve(sizes: tuple[int, ...] = DEFAULT_SIZES,
                       policy: SecurityPolicy = DEFAULT_POLICY,
                       link: LinkModel = LAN_2009, link_name: str = "lan2009",
                       repeats: int = 3, cpu_scale: float = 1.0) -> MsgOverheadCurve:
    """E2: plain sendMsgPeer vs secureMsgPeer across message sizes.

    One warmed-up world per variant; the secure path is measured in its
    steady state (advertisements validated and cached), matching a running
    chat session — the scenario Figure 2 describes.  Figure 2 prices the
    paper's stateless primitive, one RSA sign + envelope per message, so
    resumption is switched off here whatever ``policy`` says: a resumed
    session has no per-message RSA, the fixed cost the figure is about.
    E-MSGFAST and perfbench's ``chat`` workload measure the resumed send.
    Plain and secure sends alternate (:func:`paired_timed`), so both
    sides of each overhead ratio see the same host load.
    """
    policy = policy.with_(enable_resumption=False)
    net, broker, clients = fixtures.build_plain_world(
        n_clients=2, link=link, seed=b"e2-plain")
    fixtures.join_plain(clients)
    alice, bob = clients

    snet, admin, sbroker, sclients = fixtures.build_secure_world(
        n_clients=2, link=link, policy=policy, seed=b"e2-sec", joined=True)
    salice, sbob = sclients

    curve = MsgOverheadCurve(link_name=link_name, cpu_scale=cpu_scale,
                             rsa_bits=policy.rsa_bits)
    for size in sizes:
        text = "x" * size
        plain, secure = paired_timed(
            (net, lambda: alice.send_msg_peer(str(bob.peer_id), "bench", text)),
            (snet, lambda: salice.secure_msg_peer(str(sbob.peer_id), "bench", text)),
            repeats=repeats, cpu_scale=cpu_scale,
            names=(f"e2.plain_msg.{size}", f"e2.secure_msg.{size}"))
        plain_s = mean_total(plain)
        secure_s = mean_total(secure)
        curve.points.append(MsgOverheadPoint(
            size_bytes=size, plain_s=plain_s, secure_s=secure_s,
            overhead_pct=overhead_pct(secure_s, plain_s)))
    return curve


# ===========================================================================
# A3 — secureMsgPeerGroup scaling with group size
# ===========================================================================

@dataclass
class GroupScalePoint:
    group_size: int
    plain_s: float
    secure_s: float
    overhead_pct: float


def group_scaling(group_sizes: tuple[int, ...] = (2, 4, 8, 16),
                  policy: SecurityPolicy = DEFAULT_POLICY,
                  link: LinkModel = LAN_2009, cpu_scale: float = 1.0,
                  text: str = "hello group") -> list[GroupScalePoint]:
    """A3: sendMsgPeerGroup vs secureMsgPeerGroup as members grow.

    Both are linear in group size by construction (iterated peer sends,
    §4.3.1); the interesting output is the per-member secure cost.  The
    paper's iterated send signs and seals once per member, so both fast
    paths are switched off whatever ``policy`` says: ``seal_many`` would
    sign once per group and resumption would drop the RSA altogether.
    E-MSGFAST and E-GROUP measure those paths.
    """
    policy = policy.with_(enable_resumption=False, enable_seal_many=False)
    out = []
    for n in group_sizes:
        net, broker, clients = fixtures.build_plain_world(
            n_clients=n, link=link, seed=b"a3-plain-%d" % n)
        fixtures.join_plain(clients)
        sender = clients[0]
        plain = repeat_timed(
            net, lambda: sender.send_msg_peer_group("bench", text),
            repeats=2, cpu_scale=cpu_scale, name=f"a3.plain_group.{n}")

        snet, admin, sbroker, sclients = fixtures.build_secure_world(
            n_clients=n, link=link, policy=policy,
            seed=b"a3-sec-%d" % n, joined=True)
        ssender = sclients[0]
        secure = repeat_timed(
            snet, lambda: ssender.secure_msg_peer_group("bench", text),
            repeats=2, cpu_scale=cpu_scale, name=f"a3.secure_group.{n}")
        plain_s = mean_total(plain)
        secure_s = mean_total(secure)
        out.append(GroupScalePoint(
            group_size=n, plain_s=plain_s, secure_s=secure_s,
            overhead_pct=overhead_pct(secure_s, plain_s)))
    return out


# ===========================================================================
# A4 — stateless secure messaging vs TLS channel vs CBJX
# ===========================================================================

#: timing rounds behind each A4 cell; each cell keeps its fastest
A4_BEST_OF = 3


@dataclass
class BaselineComparisonPoint:
    n_messages: int
    stateless_s: float      # paper's secureMsgPeer, per conversation
    tls_s: float            # handshake + records
    cbjx_s: float           # per-message signed encapsulation


def _a4_conversations(n: int, size_bytes: int, policy: SecurityPolicy,
                      link: LinkModel) -> list[tuple]:
    """The stateless, TLS and CBJX ``(network, run)`` pairs for one
    N-message conversation, each world built and warmed."""
    text = "y" * size_bytes
    payload = text.encode()

    # stateless secure primitives
    snet, admin, sbroker, sclients = fixtures.build_secure_world(
        n_clients=2, link=link, policy=policy,
        seed=b"a4-sec-%d" % n, joined=True)
    salice, sbob = sclients
    salice.secure_msg_peer(str(sbob.peer_id), "bench", "warmup")

    def stateless_run():
        for _ in range(n):
            salice.secure_msg_peer(str(sbob.peer_id), "bench", text)

    # TLS channel (handshake included, so each run re-handshakes)
    tnet = fixtures.fresh_network(link)
    # OAEP-wrapping the 48-byte premaster needs >= 1024-bit moduli
    server_keys = fixtures.cached_keypair(max(1024, policy.rsa_bits),
                                          "tls-server")
    TlsEchoServer(tnet, "srv", server_keys, HmacDrbg(b"a4-tls-s-%d" % n))
    driver = TlsClientDriver(tnet, "cli", "srv", HmacDrbg(b"a4-tls-c-%d" % n))

    def tls_run():
        driver.handshake()
        for _ in range(n):
            driver.echo(payload)

    # CBJX datagrams
    cnet = fixtures.fresh_network(link)
    pair = CbjxEchoPair(
        cnet, "a", "b",
        fixtures.cached_keypair(policy.rsa_bits, "cbjx-a"),
        fixtures.cached_keypair(policy.rsa_bits, "cbjx-b"),
        HmacDrbg(b"a4-cbjx-%d" % n))

    def cbjx_run():
        for _ in range(n):
            pair.send_a_to_b(payload)

    return [(snet, stateless_run), (tnet, tls_run), (cnet, cbjx_run)]


def baseline_comparison(message_counts: tuple[int, ...] = (1, 2, 5, 10, 50),
                        size_bytes: int = 1_000,
                        policy: SecurityPolicy = DEFAULT_POLICY,
                        link: LinkModel = LAN_2009,
                        cpu_scale: float = 1.0) -> list[BaselineComparisonPoint]:
    """A4: total cost of an N-message conversation under each mechanism.

    TLS pays a handshake once then cheap symmetric records; the stateless
    scheme pays asymmetric crypto per message; CBJX signs per message but
    does not encrypt.  The crossover N is the design trade-off §4.3 talks
    about.  The stateless column is the paper's primitive, so resumption
    is switched off whatever ``policy`` says: a resumed session is itself
    a channel with a one-time handshake, the TLS column's cost shape.
    Every cell is the fastest of :data:`A4_BEST_OF` rounds that run all
    cells in turn (:func:`fastest_interleaved`), so a change in host
    speed hits every cell alike instead of skewing the growth with N.
    """
    policy = policy.with_(enable_resumption=False)
    ops, names = [], []
    for n in message_counts:
        ops += _a4_conversations(n, size_bytes, policy, link)
        names += [f"a4.{column}.{n}" for column in ("stateless", "tls", "cbjx")]
    kept = fastest_interleaved(ops, A4_BEST_OF, cpu_scale, names=names)
    return [BaselineComparisonPoint(n, *(t.total_s for t in kept[3 * i:3 * i + 3]))
            for i, n in enumerate(message_counts)]


# ===========================================================================
# E-OBS — per-primitive distributions from the observability registry
# ===========================================================================

#: paper primitive name -> the Client Module method the decorator records
OBS_PRIMITIVES: dict[str, str] = {
    "secureConnection": "secure_connect",
    "secureLogin": "secure_login",
    "secureMsgPeer": "secure_msg_peer",
}


def obs_snapshot_report(registry: "obs.Registry",
                        meta: dict | None = None) -> dict:
    """Shape a registry snapshot as the ``BENCH_OBS.json`` document.

    Per-primitive latency (p50/p95) and byte/frame distributions for the
    three §4 primitives, every protocol-phase span histogram, and the raw
    counter/gauge maps.  Shared by :func:`obs_bench` and the pytest
    benchmark session hook.
    """
    snap = registry.snapshot()
    primitives = {}
    for paper_name, prim in OBS_PRIMITIVES.items():
        primitives[paper_name] = {
            "calls": snap["counters"].get(f"overlay.{prim}.calls", 0),
            "errors": snap["counters"].get(f"overlay.{prim}.errors", 0),
            "latency_ms": snap["histograms"].get(f"overlay.{prim}.latency_ms", {}),
            "bytes_sent": snap["histograms"].get(f"overlay.{prim}.bytes_sent", {}),
            "frames_sent": snap["histograms"].get(f"overlay.{prim}.frames_sent", {}),
        }
    return {
        "meta": meta or {},
        "primitives": primitives,
        "spans": {name: summary
                  for name, summary in snap["histograms"].items()
                  if name.startswith("span.")},
        "counters": snap["counters"],
        "gauges": snap["gauges"],
    }


def obs_bench(repeats: int = 5, policy: SecurityPolicy = DEFAULT_POLICY,
              link: LinkModel = LAN_2009, link_name: str = "lan2009",
              msg_size: int = 1_000) -> dict:
    """E-OBS: run the secure join + messaging workload under a fresh,
    enabled observability registry and report the captured distributions.

    Each repeat builds a fresh secure world and performs two full joins
    (secureConnection + secureLogin per client) plus ``repeats`` calls of
    secureMsgPeer; the swapped-in registry sees only this workload, so
    the percentiles are clean per-primitive distributions.
    """
    text = "x" * msg_size
    with obs.scope() as state:
        for r in range(repeats):
            net, admin, broker, clients = fixtures.build_secure_world(
                n_clients=2, link=link, policy=policy,
                seed=b"e-obs-%d" % r, joined=True)
            c0, c1 = clients
            for _ in range(repeats):
                c0.secure_msg_peer(str(c1.peer_id), "bench", text)
    return obs_snapshot_report(state.registry, meta={
        "experiment": "obs_bench",
        "repeats": repeats,
        "rsa_bits": policy.rsa_bits,
        "link": link_name,
        "msg_size_bytes": msg_size,
    })


# ===========================================================================
# A2 — policy ablation on E1/E2
# ===========================================================================

@dataclass
class PolicyAblationRow:
    label: str
    rsa_bits: int
    suite: str
    join_secure_s: float
    msg_secure_s: float


def policy_ablation(policies: dict[str, SecurityPolicy] | None = None,
                    msg_size: int = 10_000,
                    link: LinkModel = LAN_2009,
                    cpu_scale: float = 1.0) -> list[PolicyAblationRow]:
    """A2: how key size / cipher suite choices move the secure costs."""
    if policies is None:
        from repro.crypto import envelope

        policies = {
            "rsa1024+chacha(oaep)": SecurityPolicy(rsa_bits=1024),
            "rsa1024+aes-cbc(v1.5)": SecurityPolicy(
                rsa_bits=1024, envelope_suite="aes128-cbc",
                envelope_wrap=envelope.WRAP_V15,
                signature_scheme="rsa-pkcs1v15-sha256"),
            "rsa2048+chacha(oaep)": SecurityPolicy(rsa_bits=2048),
        }
    rows = []
    for label, policy in policies.items():
        policy = policy.validate()
        net, admin, broker, clients = fixtures.build_secure_world(
            n_clients=2, link=link, policy=policy,
            seed=b"a2-" + label.encode())
        c0, c1 = clients

        def join():
            c0.secure_connect("broker:0")
            c0.secure_login("user0", "pw0")

        join_t = timed_call(net, join, cpu_scale)
        c1.secure_connect("broker:0")
        c1.secure_login("user1", "pw1")
        text = "z" * msg_size
        msg = repeat_timed(
            net, lambda: c0.secure_msg_peer(str(c1.peer_id), "bench", text),
            repeats=3, cpu_scale=cpu_scale)
        rows.append(PolicyAblationRow(
            label=label, rsa_bits=policy.rsa_bits,
            suite=policy.envelope_suite,
            join_secure_s=join_t.total_s,
            msg_secure_s=mean_total(msg)))
    return rows
