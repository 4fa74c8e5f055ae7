"""E-HOTPATH: profile the steady-state message path, gate its cost ratio.

Five PRs stacked per-message layers onto the secure-messaging path —
codec, wire boundary, observability, federation routing, seal/resume
crypto.  This experiment times each **stage** of that path (µs/op of
the shipped implementation) and prices the **layer ladder** (plain →
+wire → +obs → +secure → +resumed) over interleaved trials, so a slow
stretch of the host hits every layer alike.

``python -m repro.bench --experiment hotpath`` prints the report, writes
``BENCH_HOTPATH.json`` and exits nonzero if an acceptance check fails.
Two extra CLI verbs back the CI gates (see ``python -m
repro.bench.profile --help``):

* ``--gate FRESH [BASELINE]`` — regression gate.  Compares a fresh
  ``BENCH_HOTPATH.json`` against the committed baseline and fails when
  the **cost ratio** — ``+secure resumed`` ms/msg over ``plain`` ms/msg,
  the median over trials, which tracks the code rather than the host —
  exceeds the baseline's by more than :data:`REGRESSION_TOLERANCE`.
* ``--check-docs [DOC]`` — drift gate.  The layer-cost table embedded
  in ``docs/PERFORMANCE.md`` must match the one rendered from the
  committed baseline JSON byte-for-byte (same pattern as
  ``python -m repro.wire --check-docs``).

``--cprofile [N]`` runs N steady-state sends under :mod:`cProfile` and
prints the hottest functions, which is how the optimization targets in
this module were found in the first place.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro import obs
from repro.bench import fixtures
from repro.bench.paths import bench_out_path
from repro.crypto import chacha20, envelope, resume
from repro.crypto.drbg import HmacDrbg
from repro.jxta.messages import Message
from repro.overlay.federation import HashRing
from repro.wire import catalogue

#: --gate tolerance: fail when the cost ratio grows by more than this
REGRESSION_TOLERANCE = 0.20

#: the ladder row whose cost relative to ``plain`` the gate tracks
GATED_LAYER = "+secure resumed"

#: where CI keeps the committed reference run
BASELINE_PATH = "benchmarks/baselines/BENCH_HOTPATH.json"

#: the document carrying the generated layer-cost table
PERFORMANCE_DOC = "docs/PERFORMANCE.md"

BEGIN_MARK = "<!-- BEGIN GENERATED LAYER COST TABLE -->"
END_MARK = "<!-- END GENERATED LAYER COST TABLE -->"

#: payload used by every stage and end-to-end probe (a chat-sized frame)
_PAYLOAD_TEXT = "hot-path probe " * 4


# -- micro timing ----------------------------------------------------------


def _us_per_op(fn, repeats: int, warmup: int = 3) -> float:
    """Mean microseconds per call of ``fn`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats * 1e6


def _stage(name: str, fn, repeats: int) -> dict:
    """One stage cell: µs/op of the shipped implementation."""
    return {"stage": name, "us": round(_us_per_op(fn, repeats), 3)}


def _chat_message() -> Message:
    chat = Message("chat")
    chat.add_text("from_peer", "urn:jxta:peer-bench")
    chat.add_text("from_user", "bench")
    chat.add_text("group", "bench")
    chat.add_text("text", _PAYLOAD_TEXT)
    return chat


def stage_report(repeats: int = 2000) -> list[dict]:
    """Per-stage breakdown of the message path, µs/op per stage."""
    stages: list[dict] = []

    # codec: serialize on send, then the relay/retry re-serialization
    # (served from the cached buffer)
    def encode_twice():
        msg = _chat_message()
        msg.to_wire()
        msg.to_wire()

    stages.append(_stage("codec encode x2 (send + relay)", encode_twice,
                         repeats // 4))

    # codec: parse + re-serialize, the broker's store-and-forward shape
    wire_bytes = _chat_message().to_wire()
    stages.append(_stage("codec decode + re-encode (forward)",
                         lambda: Message.from_wire(wire_bytes).to_wire(),
                         repeats // 4))

    # wire boundary: the compiled per-FrameSpec decoder
    spec = catalogue.get("chat")
    sample = spec.sample_message()
    compiled = spec.compiled()
    stages.append(_stage("wire boundary decode", lambda: compiled(sample),
                         repeats))

    # federation: memoized consistent-hash owner lookup
    ring = HashRing()
    for i in range(5):
        ring.add(f"broker:{i}")
    keys = [f"urn:jxta:peer-{i}" for i in range(64)]
    counter = {"i": 0}

    def ring_lookup():
        counter["i"] += 1
        ring.owner(keys[counter["i"] % len(keys)])

    stages.append(_stage("ring owner lookup", ring_lookup, repeats))

    # obs: one interned counter increment
    registry = obs.Registry(enabled=True)
    saved = obs.get_registry()
    obs.set_registry(registry)
    try:
        interned = obs.InternedCounter("bench.hotpath.incr")
        stages.append(_stage("obs counter increment", interned.incr,
                             repeats * 4))
    finally:
        obs.set_registry(saved)

    # crypto: the ChaCha20 keystream behind every sealed frame (1 KiB)
    key, nonce = b"k" * 32, b"n" * 12
    stages.append(_stage("chacha20 keystream (1 KiB)",
                         lambda: chacha20.keystream(key, 1, nonce, 16),
                         repeats // 4))

    # crypto: one resumed frame, seal + open (zero RSA by construction)
    payload = _PAYLOAD_TEXT.encode("utf-8") * 16
    seed = b"s" * envelope.RESUME_SEED_LEN
    tx = resume.derive_session(seed, "chacha20poly1305", 0.0)
    rx = resume.derive_session(seed, "chacha20poly1305", 0.0)

    def resumed_roundtrip():
        env = resume.seal_resumed(tx, payload, aad=b"bench")
        resume.open_resumed(rx, env, aad=b"bench")

    stages.append(_stage("resume seal + open (1 KiB)", resumed_roundtrip,
                         repeats // 8))

    # crypto: the establishing envelope (RSA wrap dominates, so this row
    # bounds what any symmetric-side work can save on establishment)
    keys_rsa = fixtures.cached_keypair(512, "hotpath-env")
    drbg = HmacDrbg(b"hotpath-envelope")

    def envelope_roundtrip():
        env = envelope.seal(keys_rsa.public, payload, drbg=drbg,
                            wrap=envelope.WRAP_V15)
        envelope.open_(keys_rsa.private, env)

    stages.append(_stage("envelope seal + open (establish)",
                         envelope_roundtrip, max(repeats // 50, 10)))
    return stages


# -- the layer ladder ------------------------------------------------------


def _obs_state(enabled: bool = True) -> tuple:
    """A fresh (registry, tracer, events) triple."""
    registry = obs.Registry(enabled=enabled)
    return (registry, obs.Tracer(registry=registry),
            obs.ProtocolEvents(registry=registry))


def _install_obs(state: tuple) -> tuple:
    """Make ``state`` the process obs triple; returns the one it replaced."""
    saved = (obs.get_registry(), obs.get_tracer(), obs.get_events())
    obs.set_registry(state[0])
    obs.set_tracer(state[1])
    obs.set_events(state[2])
    return saved


def _measure_sends(send, messages: int) -> tuple[float, int]:
    """Wall-clock ms per message of a send loop, and how many landed.

    Throughput is real CPU time, not simulated time (the simulated
    network adds no wall cost).
    """
    delivered = 0
    t0 = time.perf_counter()
    for _ in range(messages):
        if send():
            delivered += 1
    return (time.perf_counter() - t0) / messages * 1e3, delivered


def _steady_world(seed: bytes):
    """A joined two-client secure world with a minted resume session."""
    from repro.bench.msgfast import bench_policy

    net, _admin, _broker, clients = fixtures.build_secure_world(
        n_clients=2, policy=bench_policy(True), seed=seed, joined=True)
    sender, receiver = clients
    # establish: the first send mints the pair-wise session (RSA here,
    # never again) and warms every cache the steady state consults
    sender.secure_msg_peer(str(receiver.peer_id), "bench", "establish")
    return net, sender, receiver


def _plain_pair(seed: bytes, wire: bool):
    """A joined plain world; optionally with the wire boundary removed."""
    net, broker, clients = fixtures.build_plain_world(
        n_clients=2, seed=seed)
    fixtures.join_plain(clients)
    if not wire:
        for endpoint in (broker.control.endpoint, clients[0].control.endpoint,
                         clients[1].control.endpoint):
            endpoint._wire = None
    sender, receiver = clients
    sender.send_msg_peer(str(receiver.peer_id), "bench", "warm")
    return net, sender, receiver


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def layer_ladder(messages: int = 40, trials: int = 15) -> list[dict]:
    """Price each stacked layer: plain → +wire → +obs → +secure → +resumed.

    Every layer gets one world and one obs registry (the secure rows use
    the bench policy: 512-bit RSA, so the *structure* of the cost is
    representative, the RSA constants are small).  Each trial then times ``messages`` sends
    on every layer in turn, so host noise lands on all rows of a trial
    alike.  ``ms_per_msg`` is the median over trials; ``x_vs_plain`` is
    the median of the per-trial ratio to the same trial's ``plain`` row,
    with its quartiles beside it.
    """
    from repro.bench.msgfast import bench_policy

    def plain_send(wire: bool):
        _net, sender, receiver = _plain_pair(b"e-hotpath-ladder", wire=wire)
        return lambda: sender.send_msg_peer(
            str(receiver.peer_id), "bench", _PAYLOAD_TEXT).ok

    def secure_send(fast: bool):
        net, _admin, _broker, clients = fixtures.build_secure_world(
            n_clients=2, policy=bench_policy(fast),
            seed=b"e-hotpath-ladder-sec", joined=True)
        sender, receiver = clients
        sender.secure_msg_peer(str(receiver.peer_id), "bench", "warm")
        return lambda: sender.secure_msg_peer(
            str(receiver.peer_id), "bench", _PAYLOAD_TEXT)

    # (layer, obs enabled, world builder)
    layers = [
        ("plain", False, lambda: plain_send(wire=False)),
        ("+wire", False, lambda: plain_send(wire=True)),
        ("+obs", True, lambda: plain_send(wire=True)),
        ("+secure (stateless)", True, lambda: secure_send(fast=False)),
        (GATED_LAYER, True, lambda: secure_send(fast=True)),
    ]
    states = [_obs_state(obs_enabled) for _layer, obs_enabled, _b in layers]
    sends = []
    for state, (_layer, _obs_enabled, build) in zip(states, layers):
        saved = _install_obs(state)
        try:
            sends.append(build())
        finally:
            _install_obs(saved)

    ms = [[] for _ in layers]
    delivered = [0] * len(layers)
    for _ in range(trials):
        for i, state in enumerate(states):
            saved = _install_obs(state)
            try:
                ms_per_msg, landed = _measure_sends(sends[i], messages)
            finally:
                _install_obs(saved)
            ms[i].append(ms_per_msg)
            delivered[i] += landed

    rows: list[dict] = []
    for i, (layer, _obs_enabled, _build) in enumerate(layers):
        median_ms = statistics.median(ms[i])
        q1, ratio, q3 = _quartiles(
            [mine / plain for mine, plain in zip(ms[i], ms[0])])
        rows.append({
            "layer": layer,
            "trials": trials,
            "messages": messages * trials,
            "delivered": delivered[i],
            "ms_per_msg": round(median_ms, 4),
            "msgs_per_sec": round(1e3 / median_ms, 2),
            "x_vs_plain": round(ratio, 2),
            "x_vs_plain_q1": round(q1, 2),
            "x_vs_plain_q3": round(q3, 2),
        })
    return rows


def _gated_row(data: dict) -> dict:
    for row in data["layers"]:
        if row["layer"] == GATED_LAYER:
            return row
    raise KeyError(f"no {GATED_LAYER!r} row in the layer ladder")


def gated_ratio(data: dict) -> float:
    """The gated quantity of a hotpath document: the
    :data:`GATED_LAYER` row's median cost ratio to ``plain``."""
    return _gated_row(data)["x_vs_plain"]


# -- the experiment document ----------------------------------------------


def _checks(ladder: list[dict]) -> dict:
    by_layer = {row["layer"]: row for row in ladder}
    checks = {
        "all_delivered": all(
            row["delivered"] == row["messages"] for row in ladder),
        # resumption exists to undercut the stateless envelope
        "resumed_cheaper_than_stateless":
            by_layer[GATED_LAYER]["ms_per_msg"]
            < by_layer["+secure (stateless)"]["ms_per_msg"],
    }
    checks["all_passed"] = all(checks.values())
    return checks


def hotpath_report(quick: bool = False) -> dict:
    """The complete E-HOTPATH document (stages + ladder + checks)."""
    stages = stage_report(repeats=400 if quick else 2000)
    ladder = layer_ladder(trials=9 if quick else 21)
    return {
        "experiment": "E-HOTPATH",
        "quick": quick,
        "stages": stages,
        "layers": ladder,
        "checks": _checks(ladder),
    }


def format_hotpath(data: dict) -> str:
    lines = [
        "E-HOTPATH: stage timings (µs/op)",
        f"  {'stage':<34}  {'µs/op':>9}",
    ]
    for row in data["stages"]:
        lines.append(f"  {row['stage']:<34}  {row['us']:>9.1f}")
    trials = data["layers"][0]["trials"]
    lines += [
        "",
        f"E-HOTPATH: the layer ladder (median of {trials} interleaved "
        "trials)",
        f"  {'layer':<22}  {'msgs/sec':>9}  {'ms/msg':>8}  {'x plain':>8}  "
        f"{'IQR':>13}",
    ]
    for row in data["layers"]:
        iqr = f"{row['x_vs_plain_q1']:.2f}-{row['x_vs_plain_q3']:.2f}x"
        lines.append(
            f"  {row['layer']:<22}  {row['msgs_per_sec']:>9.1f}  "
            f"{row['ms_per_msg']:>8.2f}  {row['x_vs_plain']:>7.2f}x  "
            f"{iqr:>13}")
    checks = data["checks"]
    lines += ["", "E-HOTPATH acceptance checks:"]
    for key, value in sorted(checks.items()):
        if key != "all_passed":
            lines.append(f"  {key:<34} : {value}")
    lines.append(f"  {'all_passed':<34} : {checks['all_passed']}")
    return "\n".join(lines)


def write_bench_hotpath(data: dict,
                        path: str | Path | None = None) -> Path:
    """Persist the E-HOTPATH document as machine-readable JSON."""
    out = Path(path) if path is not None else bench_out_path("BENCH_HOTPATH.json")
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


# -- CI regression gate ----------------------------------------------------


def check_regression(fresh: dict, baseline: dict,
                     tolerance: float = REGRESSION_TOLERANCE) -> list[str]:
    """Problems (empty = pass) comparing a fresh run to the baseline.

    The gated quantity is the **cost ratio** of :data:`GATED_LAYER` to
    ``plain`` (:func:`gated_ratio`), because absolute msgs/sec tracks
    the host machine, not the code.  Absolute throughput is still
    reported for eyeballs.
    """
    problems: list[str] = []
    fresh_ratio = gated_ratio(fresh)
    base_ratio = gated_ratio(baseline)
    ceiling = base_ratio * (1.0 + tolerance)
    if fresh_ratio > ceiling:
        problems.append(
            f"cost ratio regressed: {GATED_LAYER} costs {fresh_ratio:.2f}x "
            f"plain > {ceiling:.2f}x ({(1 + tolerance) * 100:.0f}% of the "
            f"baseline {base_ratio:.2f}x)")
    if not fresh["checks"]["all_passed"]:
        failed = [k for k, v in fresh["checks"].items() if not v]
        problems.append(f"fresh run failed its own checks: {failed}")
    return problems


def gate(fresh_path: str, baseline_path: str = BASELINE_PATH,
         tolerance: float = REGRESSION_TOLERANCE) -> int:
    try:
        fresh = json.loads(Path(fresh_path).read_text(encoding="utf-8"))
        baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"hotpath gate: cannot load inputs: {exc}")
        return 2
    problems = check_regression(fresh, baseline, tolerance)
    print(f"hotpath gate: fresh cost ratio {gated_ratio(fresh):.2f}x vs "
          f"baseline {gated_ratio(baseline):.2f}x "
          f"(absolute: {_gated_row(fresh)['msgs_per_sec']:.0f} vs "
          f"{_gated_row(baseline)['msgs_per_sec']:.0f} msgs/sec, "
          "informational)")
    for problem in problems:
        print(f"hotpath gate: FAIL: {problem}")
    if not problems:
        print("hotpath gate: pass")
    return 1 if problems else 0


# -- the generated layer-cost table (docs drift gate) ----------------------


def render_layer_table(data: dict) -> str:
    """The markdown layer-cost table for ``docs/PERFORMANCE.md``.

    Rendered from a bench document (CI renders from the **committed
    baseline**, so the check is deterministic across machines).
    """
    lines = [
        "| layer | msgs/sec | ms/msg | x vs plain | IQR |",
        "|---|---:|---:|---:|---:|",
    ]
    for row in data["layers"]:
        lines.append(
            f"| {row['layer']} | {row['msgs_per_sec']:.1f} | "
            f"{row['ms_per_msg']:.2f} | {row['x_vs_plain']:.2f}x | "
            f"{row['x_vs_plain_q1']:.2f}–{row['x_vs_plain_q3']:.2f}x |")
    ratio = gated_ratio(data)
    lines += [
        "",
        f"Gated: `{GATED_LAYER}` costs **{ratio:.2f}x** `plain` (median of "
        f"{data['layers'][0]['trials']} interleaved trials); the gate fails "
        f"a fresh run above {ratio * (1 + REGRESSION_TOLERANCE):.2f}x "
        f"(+{REGRESSION_TOLERANCE * 100:.0f}%).",
    ]
    return "\n".join(lines) + "\n"


def embedded_section(doc_text: str) -> str | None:
    """The generated table embedded in a document, or ``None``."""
    try:
        start = doc_text.index(BEGIN_MARK) + len(BEGIN_MARK)
        end = doc_text.index(END_MARK, start)
    except ValueError:
        return None
    return doc_text[start:end].strip("\n") + "\n"


def check_docs(doc_path: str = PERFORMANCE_DOC,
               baseline_path: str = BASELINE_PATH) -> int:
    try:
        doc = Path(doc_path).read_text(encoding="utf-8")
        baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"drift check: cannot load inputs: {exc}")
        return 2
    embedded = embedded_section(doc)
    if embedded is None:
        print(f"drift check: {doc_path} has no "
              f"{BEGIN_MARK!r}...{END_MARK!r} section")
        return 2
    expected = render_layer_table(baseline)
    if embedded != expected:
        print(f"drift check: {doc_path} layer table is out of date — "
              "regenerate with `python -m repro.bench.profile "
              f"--update-docs` after refreshing {baseline_path}")
        return 1
    print(f"drift check: {doc_path} layer table matches {baseline_path}")
    return 0


def update_docs(doc_path: str = PERFORMANCE_DOC,
                baseline_path: str = BASELINE_PATH) -> int:
    doc = Path(doc_path).read_text(encoding="utf-8")
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    try:
        start = doc.index(BEGIN_MARK) + len(BEGIN_MARK)
        end = doc.index(END_MARK, start)
    except ValueError:
        print(f"update-docs: {doc_path} lacks the marker section")
        return 2
    updated = (doc[:start] + "\n" + render_layer_table(baseline) + doc[end:])
    Path(doc_path).write_text(updated, encoding="utf-8")
    print(f"update-docs: rewrote the layer table in {doc_path}")
    return 0


# -- cProfile attachment ---------------------------------------------------


def run_cprofile(messages: int = 300, top: int = 20) -> int:
    """Profile ``messages`` steady-state sends with cProfile."""
    import cProfile
    import pstats

    saved = _install_obs(_obs_state())
    try:
        _net, sender, receiver = _steady_world(b"e-hotpath-cprofile")
        peer = str(receiver.peer_id)
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(messages):
            sender.secure_msg_peer(peer, "bench", _PAYLOAD_TEXT)
        profiler.disable()
    finally:
        _install_obs(saved)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile",
        description="E-HOTPATH gates: regression, docs drift, cProfile")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gate", nargs="+", metavar="JSON",
                       help="compare FRESH [BASELINE] hotpath documents; "
                            f"baseline defaults to {BASELINE_PATH}")
    group.add_argument("--check-docs", nargs="?", const=PERFORMANCE_DOC,
                       metavar="DOC",
                       help="verify the generated layer table in DOC "
                            f"against {BASELINE_PATH}")
    group.add_argument("--update-docs", nargs="?", const=PERFORMANCE_DOC,
                       metavar="DOC",
                       help="rewrite the generated layer table in DOC "
                            f"from {BASELINE_PATH}")
    group.add_argument("--dump-table", action="store_true",
                       help=f"print the layer table from {BASELINE_PATH}")
    group.add_argument("--cprofile", nargs="?", const=300, type=int,
                       metavar="N",
                       help="profile N steady-state sends")
    args = parser.parse_args(argv)
    if args.gate:
        baseline = args.gate[1] if len(args.gate) > 1 else BASELINE_PATH
        return gate(args.gate[0], baseline)
    if args.check_docs:
        return check_docs(args.check_docs)
    if args.update_docs:
        return update_docs(args.update_docs)
    if args.dump_table:
        baseline = json.loads(
            Path(BASELINE_PATH).read_text(encoding="utf-8"))
        print(render_layer_table(baseline), end="")
        return 0
    if args.cprofile:
        return run_cprofile(args.cprofile)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
