"""What the driver and the server process of the benchmark share.

The topology (addresses, users, key labels), the three workloads and
the seeded inputs live here so that both processes derive exactly the
same world from ``--seed`` without sending it over the control pipe.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

#: the checkout the benchmark runs in (this file sits in ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_repo_sources() -> None:
    """Import ``repro`` from the checkout's ``src/``, or exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cpu_plan() -> tuple[int | None, int | None]:
    """The CPUs the driver and the server run on: the first two this
    process may use, so the two processes never share a core; none when
    there is only one."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def pin(cpu: int | None) -> None:
    """Pin the calling thread, and every thread it starts later, to
    ``cpu``; call it before any thread is started."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


BROKER = "broker:0"
GROUP = "bench"
KEY_BITS = 1024
DRIVER_USER = "sender"
DRIVER_ADDRESS = "peer:sender"
#: ops whose delivery has not been reported after this long count as failed
DELIVERY_TIMEOUT_S = 10.0
#: width of the decimal op-id prefix every generated text starts with
OP_DIGITS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    #: receiving peers homed on the broker in the server process
    receivers: int
    #: bytes of text per message (0: the workload sends no messages)
    text_bytes: int
    #: untimed operations after log-in; not a multiple of the re-key
    #: period, so timed operations still cross re-keys
    warmup_ops: int


WORKLOADS = {
    "join": Workload("join", receivers=0, text_bytes=0, warmup_ops=5),
    "chat": Workload("chat", receivers=1, text_bytes=256, warmup_ops=10),
    "group": Workload("group", receivers=8, text_bytes=4096, warmup_ops=10),
}


def member_user(index: int) -> str:
    return f"member{index}"


def member_address(index: int) -> str:
    return f"peer:m{index}"


def password(user: str) -> str:
    return f"pw-{user}"


def drbg_root(seed: int, side: str):
    """The seeded DRBG root of one process (``side``: driver or server)."""
    from repro.crypto.drbg import HmacDrbg

    return HmacDrbg(f"perfbench|seed={seed}|{side}".encode())


#: printable text including the characters XML has to escape
_ALPHABET = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
             " .,;:!?-_=+/()[]{}#<>&\"'")


class Payloads:
    """Seeded message texts: an op-id prefix, then random printable bytes."""

    def __init__(self, seed: int, round_index: int, size: int) -> None:
        self._rng = random.Random(f"perfbench-payload|{seed}|{round_index}")
        self._size = size

    def text(self, op: int) -> str:
        prefix = f"{op:0{OP_DIGITS}d}:"
        body = self._rng.choices(_ALPHABET, k=self._size - len(prefix) - 1)
        # end on a letter so no whitespace sits at either edge of the text
        return prefix + "".join(body) + "z"


def op_of(text: str) -> int:
    """The op id a generated text carries (ValueError if it has none)."""
    return int(text[:OP_DIGITS])


def digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


class OpenConnections:
    """Inbound peer connections of one process, counted through the
    public ``Endpoint.configure(on_connect=, on_close=)`` hooks.

    ``TcpTransport.close`` cancels every task still running; a
    connection task cancelled while its ``on_close`` hook runs makes
    asyncio print a ``CancelledError`` traceback.  Teardown therefore
    closes the endpoints, waits for their connections to drain, and only
    then closes the transport.
    """

    def __init__(self) -> None:
        self._open = 0
        self._changed = threading.Condition()

    def watch(self, endpoint) -> None:
        endpoint.configure(on_connect=self._opened, on_close=self._closed)

    def _opened(self, peer: str) -> None:
        with self._changed:
            self._open += 1

    def _closed(self, peer: str) -> None:
        with self._changed:
            self._open -= 1
            self._changed.notify_all()

    def wait_drained(self, timeout: float) -> bool:
        with self._changed:
            return self._changed.wait_for(lambda: self._open <= 0, timeout)

