"""Benchmark-suite fixtures: pre-joined worlds, reused across benchmarks.

The benchmark policy is the paper's RSA-1024; keys come from the process
cache in :mod:`repro.bench.fixtures` so only the measured operations pay
crypto cost.

At session end every benchmark's statistics are persisted to
``benchmarks/out/BENCH_<name>.json`` under the rootdir (previously the
numbers only lived in the terminal report), and the accumulated
observability registry is dumped as ``BENCH_OBS.json`` beside them.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import obs
from repro.bench import fixtures
from repro.bench.experiment import OUT_DIR, write_bench
from repro.bench.experiments import obs_snapshot_report
from repro.core.policy import SecurityPolicy

BENCH_POLICY = SecurityPolicy(rsa_bits=1024).validate()


def _safe_name(fullname: str) -> str:
    """'benchmarks/test_x.py::test_y[1000]' -> 'test_y_1000'."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", fullname.split("::")[-1]).strip("_")


def pytest_sessionfinish(session, exitstatus):
    out_dir = Path(str(session.config.rootpath)) / OUT_DIR
    bs = getattr(session.config, "_benchmarksession", None)
    wrote_any = False
    for bench in getattr(bs, "benchmarks", None) or []:
        try:
            data = bench.as_dict(include_data=False, flat=True)
        except Exception:
            continue  # a benchmark that never ran has no stats
        write_bench(_safe_name(bench.fullname), data, out_dir)
        wrote_any = True
    registry = obs.get_registry()
    if wrote_any and registry.enabled:
        data = obs_snapshot_report(registry, meta={
            "experiment": "pytest-benchmarks",
            "rsa_bits": BENCH_POLICY.rsa_bits,
        })
        write_bench("OBS", data, out_dir)


@pytest.fixture(scope="module")
def plain_pair():
    """(net, sender, receiver) joined on a plain broker."""
    net, broker, clients = fixtures.build_plain_world(
        n_clients=2, seed=b"bench-plain-pair")
    fixtures.join_plain(clients)
    return net, clients[0], clients[1]


@pytest.fixture(scope="module")
def secure_pair():
    """(net, sender, receiver) joined on a secure broker, warm caches."""
    net, admin, broker, clients = fixtures.build_secure_world(
        n_clients=2, policy=BENCH_POLICY, seed=b"bench-secure-pair",
        joined=True)
    clients[0].secure_msg_peer(str(clients[1].peer_id), "bench", "warmup")
    return net, clients[0], clients[1]
