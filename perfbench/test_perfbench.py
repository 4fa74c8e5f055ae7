"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run a tiny configuration of every workload end to end: the real
rounds, each with its own server process, measuring a fraction of a
second each, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from attribution import (Span, SpanIndex, attribute, build_tree, check_credit,
                         check_tree)
from common import ROOT, WORKLOADS, Payloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: seconds a tiny run measures, split across its rounds and phases
TINY_SECONDS = 1.5
#: per-layer metrics that count work per operation, which the seed must
#: not change (no re-key falls in a run this short)
PER_OP_COUNTS = ["crypto.rsa.private_ops", "crypto.rsa.public_ops",
                 "crypto.aead.ops", "net.tcp.frames", "overlay.broker.requests",
                 "trace.spans_per_op"]


def run(workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(TINY_SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, 3, trace)
            assert proc.returncode == 0, proc.stderr
            runs[workload, trace] = parse(proc)
    return runs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(tiny_runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, record = tiny_runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, record["problems"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], float)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_record(tiny_runs, workload):
    result, record = tiny_runs[workload, 0]
    for key in ("nproc", "cpu_model", "python", "numpy", "seed", "git_commit",
                "samples", "network"):
        assert key in record
    assert record["seed"] == 3
    assert "loopback" in record["network"]
    assert record["rounds"] == 3
    assert record["samples"]["latency_p50_ms"] == result["attempted"]
    assert 1 <= record["rss"]["ops"] <= result["attempted"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_span_tree_is_well_formed(tiny_runs, workload):
    _, record = tiny_runs[workload, 1]
    ops: dict[tuple[int, int], list[dict]] = {}
    path = HERE / "out" / f"spans-{workload}-seed3-trace1.jsonl"
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        ops.setdefault((entry["round"], entry["op"]), []).append(entry)
    assert len(ops) == record["samples"]["per_layer_ops"]
    assert {round_index for round_index, _ in ops} == {0, 1, 2}
    for entries in ops.values():
        roots = [e for e in entries if e.get("root")]
        assert len(roots) == 1
        latency = roots[0]["latency_ms"]
        spans = {(e["side"], e["id"]): e for e in entries if not e.get("root")}
        assert spans
        for span in spans.values():
            lo, hi = max(span["start_ms"], 0.0), min(span["end_ms"], latency)
            if span["parent"] is None:
                assert 0.0 <= lo <= hi <= latency
            else:
                parent = spans[tuple(span["parent"])]
                assert max(parent["start_ms"], 0.0) <= lo
                assert hi <= min(parent["end_ms"], latency)


def test_other_seed_changes_payload_not_op_counts(tiny_runs):
    assert Payloads(3, 0, 256).text(1) != Payloads(4, 0, 256).text(1)
    assert len(Payloads(3, 0, 256).text(1).encode()) == 256
    result3, record3 = tiny_runs["group", 1]
    proc = run("group", 4, 1)
    assert proc.returncode == 0, proc.stderr
    result4, record4 = parse(proc)
    assert record4["payload_sha256"] != record3["payload_sha256"]
    for name in PER_OP_COUNTS:
        assert result4["metrics"][name] == result3["metrics"][name], name
    assert result3["metrics"]["overlay.broker.requests"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def span(side, id_, name, thread, start, end, parent=0):
    return Span(side, id_, parent, name, thread, start, end, 0, False)


def test_attribution_credits_the_innermost_running_span():
    # The driver waits in a request while the server's broker handler
    # runs an RSA op; the hand-off before and after is covered by the
    # request only.
    spans = [span("driver", 1, "net.tcp.request", 1, 0.0, 10.0),
             span("server", 1, "broker", 7, 2.0, 8.0),
             span("server", 2, "crypto.rsa.private", 7, 3.0, 5.0, parent=1)]
    att = attribute(0.0, 12.0, SpanIndex(spans))
    assert att.self_time == {"net.tcp.request": 4.0, "broker": 4.0,
                             "crypto.rsa.private": 2.0}
    assert att.unattributed == 2.0
    assert att.overlap == 0.0
    parents = build_tree(spans)
    assert parents[("server", 1)] == ("driver", 1)
    assert parents[("server", 2)] == ("server", 1)
    assert parents[("driver", 1)] is None
    assert check_tree(0.0, 12.0, spans, parents) == []
    assert check_credit(0.0, 12.0, att, ("driver", "server"), 1e-9) == []


def test_attribution_splits_concurrent_spans_and_reports_overlap():
    spans = [span("server", 1, "core.client", 1, 0.0, 4.0),
             span("server", 2, "core.client", 2, 2.0, 6.0),
             span("server", 3, "net.tcp.dispatch_wait", -3, 0.0, 2.0)]
    att = attribute(0.0, 6.0, SpanIndex(spans))
    assert att.self_time == {"core.client": 6.0}
    assert att.overlap == 2.0
    assert att.unattributed == 0.0
    assert sum(att.self_time.values()) + att.unattributed == att.latency


def test_check_credit_finds_a_missing_process_and_an_overcredited_span():
    spans = [span("driver", 1, "core.client", 1, 0.0, 4.0),
             span("driver", 2, "crypto.aead", 1, 1.0, 2.0, parent=1)]
    att = attribute(0.0, 6.0, SpanIndex(spans))
    assert check_credit(0.0, 6.0, att, ("driver",), 1e-9) == []
    assert check_credit(0.0, 6.0, att, ("driver", "server"), 1e-9) == [
        "no span from the server process"]
    att.credit[("driver", 2)] += 0.5
    assert len(check_credit(0.0, 6.0, att, ("driver",), 1e-9)) == 1


def test_check_tree_finds_a_child_outside_its_parent():
    spans = [span("driver", 1, "core.client", 1, 0.0, 4.0),
             span("driver", 2, "crypto.aead", 1, 3.0, 5.0, parent=1)]
    parents = build_tree(spans)
    assert check_tree(0.0, 6.0, spans, parents)
