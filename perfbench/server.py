"""The benchmark's server process: one SecureBroker and the receiving peers.

Started by ``run.py`` as ``python3 perfbench/server.py <fd>``, where
``<fd>`` is its end of a ``multiprocessing`` pipe.  Everything it does is
driven by commands on that pipe; deliveries are reported back on it,
outside the measured path (the receive time is stamped before).
"""

from __future__ import annotations

import resource
import sys
import threading
import time
from multiprocessing.connection import Connection

from common import (BROKER, DRIVER_USER, GROUP, KEY_BITS, WORKLOADS,
                    OpenConnections, digest, drbg_root, member_address,
                    member_user, op_of, password, pin, use_repo_sources)

#: how long teardown waits for connections to drain
DRAIN_TIMEOUT_S = 10.0


def counters() -> dict[str, int]:
    from repro import obs

    return dict(obs.get_registry().snapshot()["counters"])


def usage() -> dict[str, float]:
    return {"cpu_s": time.process_time(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


class Deliveries:
    """Collects ``secure_message_received`` events per operation and
    reports an operation once every receiver delivered it."""

    def __init__(self, conn: Connection, receivers: int) -> None:
        self._conn = conn
        self._receivers = receivers
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._open: dict[int, dict[int, tuple[float, bytes, str]]] = {}
        self._done: set[int] = set()
        self.duplicates = 0
        self.malformed = 0
        self.rejected: list[str] = []

    def listener(self, member: int):
        def on_message(**event) -> None:
            received = time.perf_counter()
            text = event["text"]
            try:
                op = op_of(text)
            except ValueError:
                with self._lock:
                    self.malformed += 1
                return
            record = (received, digest(text), event["from_user"])
            with self._lock:
                got = self._open.setdefault(op, {})
                if op in self._done or member in got:
                    self.duplicates += 1
                    return
                got[member] = record
                if len(got) < self._receivers:
                    return
                del self._open[op]
                self._done.add(op)
                digests = {r[1] for r in got.values()}
                senders = {r[2] for r in got.values()}
                self.send(("delivered", op, max(r[0] for r in got.values()),
                           digests.pop() if len(digests) == 1 else b"",
                           senders == {DRIVER_USER}))

        return on_message

    def send(self, message: tuple) -> None:
        """Handler threads and the command loop share the pipe."""
        with self._send_lock:
            self._conn.send(message)

    def on_rejected(self, **event) -> None:
        with self._lock:
            self.rejected.append(str(event.get("reason")))

    def stats(self) -> dict:
        with self._lock:
            return {"duplicates": self.duplicates, "malformed": self.malformed,
                    "rejected": list(self.rejected),
                    "incomplete": len(self._open)}


def serve(conn: Connection) -> None:
    use_repo_sources()
    from repro.bench.fixtures import cached_keypair
    from repro.core import Administrator, SecureBroker, SecureClientPeer
    from repro.core.keystore import Keystore
    from repro.core.policy import DEFAULT_POLICY
    from repro.net import TcpTransport
    from repro.xmllib import serialize
    from spans import Recorder

    config = conn.recv()
    pin(config["cpu"])
    workload = WORKLOADS[config["workload"]]
    # WallClock zeroes per transport: the driver's must have started
    # first, or credentials this process issues are "not yet valid" there.
    if time.monotonic() < config["driver_clock_started"]:
        conn.send(("error", "server clock zero precedes the driver's"))
        return
    net = TcpTransport()
    recorder = Recorder()
    if config["trace"]:
        recorder.hook_transport(
            net, lambda a: "broker" if a == BROKER else "core.client")
    root = drbg_root(config["seed"], "server")
    admin = Administrator(root.fork(b"admin"), bits=KEY_BITS,
                          keys=cached_keypair(KEY_BITS, "admin"))
    admin.register_user(DRIVER_USER, password(DRIVER_USER), {GROUP})
    for i in range(workload.receivers):
        admin.register_user(member_user(i), password(member_user(i)), {GROUP})
    broker = SecureBroker.create(net, BROKER, admin, root.fork(b"broker"),
                                 name="B0", policy=DEFAULT_POLICY,
                                 keys=cached_keypair(KEY_BITS, "broker"))
    connections = OpenConnections()
    connections.watch(broker.control.endpoint)
    deliveries = Deliveries(conn, workload.receivers)
    members = []
    for i in range(workload.receivers):
        member = SecureClientPeer(
            net, member_address(i), root.fork(b"member%d" % i),
            admin.credential, name=f"{member_user(i)}-app",
            policy=DEFAULT_POLICY,
            keystore=Keystore(cached_keypair(KEY_BITS, member_user(i))))
        member.events.subscribe("secure_message_received",
                                deliveries.listener(i))
        member.events.subscribe("message_rejected", deliveries.on_rejected)
        connections.watch(member.control.endpoint)
        member.secure_connect(BROKER)
        member.secure_login(member_user(i), password(member_user(i)))
        members.append(member)
    deliveries.send(("ready", {
        "anchor": serialize(admin.credential.to_element()),
        "broker": net.location(BROKER),
        "members": [(m.address, *net.location(m.address), str(m.peer_id))
                    for m in members],
    }))
    try:
        while True:
            command, arg = conn.recv()
            if command == "routes":
                for address, host, port in arg:
                    net.add_route(address, host, port)
                deliveries.send(("ok", None))
            elif command == "mark":
                # a phase boundary: start, trace switch-on, stop
                if arg == "trace":
                    recorder.install()
                    recorder.enabled = True
                deliveries.send(("mark", {"usage": usage(), "counters": counters(),
                                    "deliveries": deliveries.stats()}))
            elif command == "usage":
                deliveries.send(("usage", usage()))
            elif command == "spans":
                recorder.enabled = False
                deliveries.send(("spans", recorder.spans))
            elif command == "exit":
                break
    finally:
        # Clients first, then the broker, then the transport once every
        # connection has drained (see OpenConnections).
        for member in members:
            member.control.close()
        broker.control.close()
        connections.wait_drained(DRAIN_TIMEOUT_S)
        net.close()
    deliveries.send(("bye", None))


def main(argv: list[str]) -> int:
    conn = Connection(int(argv[1]))
    try:
        serve(conn)
    finally:
        conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
