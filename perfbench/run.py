"""E-E2E: join, chat and group send between two OS processes on 127.0.0.1.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {join,chat,group} --seed N \\
        --seconds S --trace {0,1}

The driver process (this one) holds the sending client on its own
``TcpTransport``; ``server.py`` runs in a second process with the
``SecureBroker`` and the receiving peers on another.  One thread issues
one operation at a time (closed loop, concurrency 1).  A run is
:data:`ROUNDS` rounds, each spawning a fresh server, setting up and then
measuring ``S / ROUNDS`` seconds; latencies pool across rounds and the
set-up time is the median of the rounds'.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the
first half of each round untraced and the second half with spans
recorded in both processes, and prints the per-layer metrics (see
``attribution.py``); the spans go to ``perfbench/out/`` as JSON lines.
The last line of standard output is the result object; the line before
it is the run record.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import Pipe
from multiprocessing.connection import Connection
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import (BROKER, DELIVERY_TIMEOUT_S, DRIVER_ADDRESS,  # noqa: E402
                    DRIVER_USER, GROUP, KEY_BITS, ROOT, WORKLOADS,
                    OpenConnections, Payloads, Workload, cpu_plan, digest,
                    drbg_root, password, pin, use_repo_sources)

ROUNDS = 3
#: timed ops of the first round after which ``peak_rss_MB`` is read, so
#: the figure does not grow with the number of ops a run completes
RSS_OPS = 100
#: seconds the server may take to start, generate keys and log members in
SETUP_TIMEOUT_S = 60.0
OUT = HERE / "out"


@dataclass
class Phase:
    """One measured stretch of a round: untraced ("plain") or traced."""

    name: str
    latencies: list[float] = field(default_factory=list)
    windows: list[tuple[int, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    driver_cpu: float = 0.0
    server_cpu: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)


@dataclass
class Round:
    index: int
    setup_s: float = 0.0
    phases: list[Phase] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: peak RSS of driver + server after ``rss_ops`` timed ops, and at
    #: the end of the round after ``ops`` timed ops (first round only)
    rss_ops: int = 0
    rss_kb: int = 0
    end_rss_kb: int = 0
    ops: int = 0
    #: digest of every text the round sent, in order
    payload_sha256: str = ""
    driver_spans: list[tuple] = field(default_factory=list)
    server_spans: list[tuple] = field(default_factory=list)


def expect(conn: Connection, kind: str, timeout: float):
    if not conn.poll(timeout):
        raise RuntimeError(f"server sent no {kind!r} within {timeout}s")
    got, payload = conn.recv()[:2]
    if got != kind:
        raise RuntimeError(f"server sent {got!r} ({payload!r}), expected {kind!r}")
    return payload


class Operation:
    """One closed-loop operation of a workload, checked for correctness."""

    def __init__(self, workload: Workload, client, conn: Connection,
                 payloads: Payloads, targets: list[str]) -> None:
        self.workload = workload
        self.client = client
        self.conn = conn
        self.payloads = payloads
        self.targets = targets
        self.issued: list = []
        self.sent = hashlib.sha256()
        client.events.subscribe(
            "credential_issued", lambda credential: self.issued.append(credential))

    def run(self, op: int) -> tuple[float, float]:
        """Run op number ``op``; returns its (start, end) or raises
        :class:`OpFailed`."""
        from repro.errors import ReproError

        if self.workload.name == "join":
            return self._join()
        text = self.payloads.text(op)
        self.sent.update(text.encode("utf-8"))
        start = perf_counter()
        try:
            if self.workload.name == "chat":
                sent = self.client.secure_msg_peer(self.targets[0], GROUP, text)
                expected = True
            else:
                sent = self.client.secure_msg_peer_group(GROUP, text)
                expected = self.workload.receivers
        except ReproError as exc:
            raise OpFailed(f"op {op}: send raised {exc!r}") from exc
        if sent != expected:
            raise OpFailed(f"op {op}: send reported {sent!r}, expected {expected!r}")
        return start, self._await_delivery(op, start, digest(text))

    def _join(self) -> tuple[float, float]:
        from repro.errors import ReproError

        self.issued.clear()
        start = perf_counter()
        try:
            self.client.secure_connect(BROKER)
            groups = self.client.secure_login(DRIVER_USER, password(DRIVER_USER))
        except ReproError as exc:
            raise OpFailed(f"join raised {exc!r}") from exc
        end = perf_counter()
        if groups != [GROUP]:
            raise OpFailed(f"join returned groups {groups!r}")
        if len(self.issued) != 1:
            raise OpFailed(f"join issued {len(self.issued)} credentials")
        credential = self.issued[0]
        if (credential.subject_name != DRIVER_USER
                or credential.public_key != self.client.keystore.keys.public):
            raise OpFailed(f"join issued a credential for "
                           f"{credential.subject_name!r}")
        return start, end

    def _await_delivery(self, op: int, start: float, expected: bytes) -> float:
        deadline = start + DELIVERY_TIMEOUT_S
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not self.conn.poll(remaining):
                raise OpFailed(f"op {op}: not delivered to every receiver "
                               f"within {DELIVERY_TIMEOUT_S}s")
            kind, got, received, got_digest, sender_ok = self.conn.recv()
            if kind != "delivered":
                raise OpFailed(f"op {op}: unexpected {kind!r} from the server")
            if got != op:
                continue  # the late delivery of an op that already failed
            if got_digest != expected:
                raise OpFailed(f"op {op}: delivered text differs from the sent text")
            if not sender_ok:
                raise OpFailed(f"op {op}: delivered with the wrong sender")
            return received


class OpFailed(Exception):
    pass


def mark(conn: Connection, name: str) -> dict:
    conn.send(("mark", name))
    return expect(conn, "mark", SETUP_TIMEOUT_S)


def peak_rss_kb(server_usage: dict) -> int:
    """Peak RSS of this process plus the server's, in KiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + server_usage["maxrss_kb"])


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def final_checks(counters: dict[str, int], side: str) -> list[str]:
    """Failures any frame or handler hit during the whole round."""
    bad = {k: v for k, v in counters.items()
           if v and (k.startswith("wire.reject.")
                     or k.startswith("crypto.groupkey.reject.")
                     or k in ("net.tcp.handler_errors",
                              "crypto.resume.replay_blocked"))}
    return [f"{side}: {k} = {v}" for k, v in sorted(bad.items())]


def run_round(workload: Workload, seed: int, index: int, seconds: float,
              trace: bool, server_cpu: int | None) -> Round:
    from repro import obs
    from repro.bench.fixtures import cached_keypair
    from repro.core import SecureClientPeer
    from repro.core.credentials import Credential
    from repro.core.keystore import Keystore
    from repro.core.policy import DEFAULT_POLICY
    from repro.net import TcpTransport
    from repro.xmllib import parse
    from spans import Recorder

    result = Round(index)
    # the driver's peak RSS spans the whole process, so only the first
    # round's is read at a fixed op count
    read_rss = index == 0
    rejected: list[str] = []
    connections = OpenConnections()
    # The driver's WallClock must be zeroed before the server's (the
    # server checks this order and refuses to run otherwise).
    net = TcpTransport()
    clock_started = time.monotonic()
    recorder = Recorder()
    if trace:
        recorder.hook_transport(net, lambda address: "core.client")
    ours, theirs = Pipe()
    spawned = perf_counter()
    server = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), str(theirs.fileno())],
        pass_fds=(theirs.fileno(),), cwd=ROOT)
    theirs.close()
    client = None
    try:
        ours.send({"workload": workload.name, "seed": seed, "trace": trace,
                   "driver_clock_started": clock_started, "cpu": server_cpu})
        ready = expect(ours, "ready", SETUP_TIMEOUT_S)
        anchor = Credential.from_element(parse(ready["anchor"]))
        net.add_route(BROKER, *ready["broker"])
        for address, host, port, _peer_id in ready["members"]:
            net.add_route(address, host, port)
        client = SecureClientPeer(
            net, DRIVER_ADDRESS, drbg_root(seed, "driver").fork(b"client%d" % index),
            anchor, name=f"{DRIVER_USER}-app", policy=DEFAULT_POLICY,
            keystore=Keystore(cached_keypair(KEY_BITS, DRIVER_USER)))
        client.events.subscribe(
            "message_rejected", lambda **event: rejected.append(str(event)))
        connections.watch(client.control.endpoint)
        ours.send(("routes", [(DRIVER_ADDRESS, *net.location(DRIVER_ADDRESS))]))
        expect(ours, "ok", SETUP_TIMEOUT_S)
        operation = Operation(workload, client, ours,
                              Payloads(seed, index, workload.text_bytes),
                              [peer_id for *_, peer_id in ready["members"]])
        if workload.name != "join":
            client.secure_connect(BROKER)
            client.secure_login(DRIVER_USER, password(DRIVER_USER))
        op = 0
        for op in range(1, workload.warmup_ops + 1):
            try:
                operation.run(op)
            except OpFailed as exc:
                result.problems.append(f"warm-up {exc}")

        before = mark(ours, "start")
        result.setup_s = perf_counter() - spawned
        driver_cpu = time.process_time()
        driver_counters = dict(obs.get_registry().snapshot()["counters"])
        names = ["plain", "traced"] if trace else ["plain"]
        for name in names:
            phase = Phase(name)
            if name == "traced":
                recorder.install()
                recorder.enabled = True
            began = perf_counter()
            budget = seconds / len(names)
            while perf_counter() - began < budget:
                if read_rss and phase.attempted == RSS_OPS:
                    ours.send(("usage", None))
                    result.rss_ops = RSS_OPS
                    result.rss_kb = peak_rss_kb(expect(ours, "usage", SETUP_TIMEOUT_S))
                    read_rss = False
                op += 1
                phase.attempted += 1
                try:
                    start, end = operation.run(op)
                except OpFailed as exc:
                    phase.failed += 1
                    result.problems.append(str(exc))
                    continue
                phase.latencies.append(end - start)
                phase.windows.append((op, start, end))
            phase.elapsed = perf_counter() - began
            recorder.enabled = False
            after = mark(ours, "trace" if name == "plain" and trace else "stop")
            if read_rss:  # a short round: read it at the end of the phase
                result.rss_ops = phase.attempted
                result.rss_kb = peak_rss_kb(after["usage"])
                read_rss = False
            now_cpu = time.process_time()
            now_counters = dict(obs.get_registry().snapshot()["counters"])
            phase.driver_cpu = now_cpu - driver_cpu
            phase.server_cpu = after["usage"]["cpu_s"] - before["usage"]["cpu_s"]
            phase.counters = _delta(now_counters, driver_counters)
            for k, v in _delta(after["counters"], before["counters"]).items():
                phase.counters[k] = phase.counters.get(k, 0) + v
            result.phases.append(phase)
            before, driver_cpu, driver_counters = after, now_cpu, now_counters
        result.end_rss_kb = peak_rss_kb(before["usage"])
        result.ops = sum(p.attempted for p in result.phases)
        result.payload_sha256 = operation.sent.hexdigest()
        served = before["deliveries"]
        if served["duplicates"] or served["malformed"]:
            result.problems.append(f"server deliveries: {served}")
        if served["rejected"] or rejected:
            result.problems.append(
                f"rejected messages: {served['rejected'] + rejected}")
        result.problems += final_checks(driver_counters, "driver")
        result.problems += final_checks(before["counters"], "server")
        if trace:
            result.driver_spans = recorder.spans
            ours.send(("spans", None))
            result.server_spans = expect(ours, "spans", SETUP_TIMEOUT_S)
    finally:
        # The client endpoint, its connections, then the transport, as
        # the server does (see OpenConnections).
        if client is not None:
            client.control.close()
        connections.wait_drained(SETUP_TIMEOUT_S)
        net.close()
        try:
            ours.send(("exit", None))
            expect(ours, "bye", SETUP_TIMEOUT_S)
        except (OSError, EOFError, RuntimeError):
            pass
        ours.close()
        try:
            server.wait(SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    if server.returncode != 0:
        result.problems.append(f"server exited with {server.returncode}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_repo_sources()
    import report

    nproc = len(os.sched_getaffinity(0))
    driver_cpu, server_cpu = cpu_plan()
    pin(driver_cpu)
    workload = WORKLOADS[args.workload]
    rounds = [run_round(workload, args.seed, index, args.seconds / ROUNDS,
                        bool(args.trace), server_cpu)
              for index in range(ROUNDS)]
    ops = report.attributions(rounds) if args.trace else []
    result, record = report.summarize(args, rounds, ops)
    record["nproc"] = nproc
    record["cpus"] = {"driver": driver_cpu, "server": server_cpu}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        report.write_spans(OUT / f"spans-{stem}.jsonl", ops)
    for problem in record["problems"] + record.get("warnings", []):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
