"""Turn a run's rounds into the result line, the run record and the
span file."""

from __future__ import annotations

import json
import math
import platform
import statistics
from pathlib import Path

from attribution import (SpanIndex, attribute, build_tree, check_credit,
                         check_tree, load)
from common import ROOT

#: layers + unattributed should account for the traced p50 within this
#: share (the E-E2E item of ROADMAP.md)
ACCOUNTING_BOUND = 0.10
#: seconds by which a span's credit may exceed its time in the window
CREDIT_TOLERANCE = 1e-9
#: every traced operation runs code in both processes
SIDES = ("driver", "server")

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_MB": "MB",
}

#: span name -> the per-layer metric its credited self time goes to
SELF_METRICS = {
    "core.client": "core.client_self_ms",
    "broker": "core.broker_self_ms",
    "net.tcp.send": "net.tcp.send_ms",
    "net.tcp.request": "net.tcp.request_self_ms",
    "net.tcp.dispatch_wait": "net.tcp.dispatch_wait_self_ms",
    "net.framing.encode": "net.framing.ms",
    "net.framing.decode": "net.framing.ms",
    "wire": "wire.ms",
    "jxta.messages.encode": "jxta.messages.encode_ms",
    "jxta.messages.decode": "jxta.messages.decode_ms",
    "xmllib.parse": "xmllib.parse_ms",
    "xmllib.serialize": "xmllib.serialize_ms",
    "xmllib.canonicalize": "xmllib.canonicalize_ms",
    "utils.encoding.b64": "utils.encoding.b64_ms",
    "crypto.aead": "crypto.aead.ms",
    "crypto.chacha20": "crypto.chacha20.ms",
    "crypto.poly1305": "crypto.poly1305.ms",
    "crypto.rsa.private": "crypto.rsa.private_ms",
    "crypto.rsa.public": "crypto.rsa.public_ms",
    "core.credentials.validate_chain": "core.credentials.validate_chain_ms",
    "dsig.verify": "dsig.verify_ms",
}

#: span name -> metric of its whole (clipped) duration
INCLUSIVE_METRICS = {
    "broker": "overlay.broker.handler_ms",
    "net.tcp.request": "net.tcp.request_rtt_ms",
    "net.tcp.dispatch_wait": "net.tcp.dispatch_wait_ms",
}

#: metric -> span names whose calls it counts
CALL_METRICS = {
    "crypto.rsa.private_ops": ["crypto.rsa.private"],
    "crypto.rsa.public_ops": ["crypto.rsa.public"],
    "crypto.aead.ops": ["crypto.aead"],
    "overlay.broker.requests": ["broker"],
    "net.tcp.frames": ["net.framing.encode"],
}

#: metric -> span names whose bytes it sums
BYTE_METRICS = {
    "crypto.aead.bytes": ["crypto.aead"],
    "xmllib.parse_bytes": ["xmllib.parse"],
    "jxta.messages.bytes": ["jxta.messages.encode", "jxta.messages.decode"],
    "net.tcp.bytes": ["net.framing.encode"],
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {m: "ms" for m in [*SELF_METRICS.values(), *INCLUSIVE_METRICS.values()]}
    units.update({m: "count" for m in CALL_METRICS})
    units.update({m: "B" for m in BYTE_METRICS})
    units.update({
        "net.tcp.failures": "count",
        "wire.rejects": "count",
        "crypto.sigcache.hit_ratio": "ratio",
        "crypto.envelope.full_seals": "count",
        "crypto.resume.resumed_ratio": "ratio",
        "proc.driver.cpu_ms": "ms",
        "proc.server.cpu_ms": "ms",
        "e2e.unattributed_ms": "ms",
        "e2e.overlap_ms": "ms",
        "e2e.attributed_ms": "ms",
        "e2e.traced_p50_ms": "ms",
        "trace.untraced_p50_ms": "ms",
        "trace.overhead_ms": "ms",
        "trace.spans_per_op": "count",
    })
    return units


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default);
    0.0 when nothing completed (the run is then incorrect anyway)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _phases(rounds, name):
    return [p for r in rounds for p in r.phases if p.name == name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rounds) -> dict[str, float]:
    plain = _phases(rounds, "plain")
    latencies = [x for p in plain for x in p.latencies]
    done = len(latencies)
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p75_ms": percentile(latencies, 75) * 1e3,
        "ops_per_s": _ratio(done, sum(p.elapsed for p in plain)),
        "cpu_ms_per_op": _ratio(
            sum(p.driver_cpu + p.server_cpu for p in plain) * 1e3, done),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_MB": rounds[0].rss_kb / 1024.0,
    }


def rss_growth(first) -> float:
    """MB of peak RSS (driver + server) the first round gained per 1000
    timed ops after ``peak_rss_MB`` was read."""
    return _ratio((first.end_rss_kb - first.rss_kb) / 1024.0 * 1000,
                  first.ops - first.rss_ops)


def attributions(rounds):
    """Per traced op: (round, op id, start, end, OpAttribution); op ids
    restart in every round."""
    out = []
    for r in rounds:
        index = SpanIndex(load("driver", r.driver_spans)
                          + load("server", r.server_spans))
        for phase in _phases([r], "traced"):
            for op, start, end in phase.windows:
                out.append((r.index, op, start, end, attribute(start, end, index)))
    return out


def per_layer(rounds, ops) -> tuple[dict[str, float], list[str], list[str]]:
    """The per-layer metrics, the attribution check's problems and its
    warnings."""
    n = max(len(ops), 1)
    metrics = {m: 0.0 for m in per_layer_units()}
    problems, warnings = [], []
    for round_index, op, start, end, att in ops:
        problems += [f"round {round_index} op {op}: {p}" for p in
                     check_credit(start, end, att, SIDES, CREDIT_TOLERANCE)]
        for span, ms in att.self_time.items():
            metrics[SELF_METRICS[span]] += ms * 1e3
        for span, ms in att.inclusive.items():
            if span in INCLUSIVE_METRICS:
                metrics[INCLUSIVE_METRICS[span]] += ms * 1e3
        for metric, names in CALL_METRICS.items():
            metrics[metric] += sum(att.calls.get(s, 0) for s in names)
        for metric, names in BYTE_METRICS.items():
            metrics[metric] += sum(att.nbytes.get(s, 0) for s in names)
        metrics["net.tcp.failures"] += sum(
            att.failures.get(s, 0) for s in ("net.tcp.send", "net.tcp.request"))
        metrics["e2e.unattributed_ms"] += att.unattributed * 1e3
        metrics["e2e.overlap_ms"] += att.overlap * 1e3
        metrics["trace.spans_per_op"] += len(att.spans)
    for metric in metrics:
        metrics[metric] /= n
    traced = _phases(rounds, "traced")
    counters: dict[str, int] = {}
    for phase in traced:
        for k, v in phase.counters.items():
            counters[k] = counters.get(k, 0) + v
    c = counters.get
    metrics["net.tcp.failures"] += c("net.tcp.frames_dropped", 0) / n
    metrics["wire.rejects"] = sum(v for k, v in counters.items()
                                  if k.startswith("wire.reject.")) / n
    metrics["crypto.sigcache.hit_ratio"] = _ratio(
        c("crypto.sigcache.hits", 0),
        c("crypto.sigcache.hits", 0) + c("crypto.sigcache.misses", 0))
    metrics["crypto.envelope.full_seals"] = (
        c("crypto.envelope.seal", 0) + c("crypto.envelope.seal_many", 0)) / n
    metrics["crypto.resume.resumed_ratio"] = _ratio(
        c("crypto.resume.open", 0),
        c("crypto.resume.open", 0) + c("crypto.envelope.open", 0))
    metrics["proc.driver.cpu_ms"] = sum(p.driver_cpu for p in traced) / n * 1e3
    metrics["proc.server.cpu_ms"] = sum(p.server_cpu for p in traced) / n * 1e3
    metrics["e2e.attributed_ms"] = sum(metrics[m] for m in set(SELF_METRICS.values()))
    traced_p50 = percentile([x for p in traced for x in p.latencies], 50) * 1e3
    plain_p50 = percentile(
        [x for p in _phases(rounds, "plain") for x in p.latencies], 50) * 1e3
    metrics["e2e.traced_p50_ms"] = traced_p50
    # not a printed metric: the run record carries it
    metrics["e2e.accounted_ratio"] = _ratio(
        metrics["e2e.attributed_ms"] + metrics["e2e.unattributed_ms"], traced_p50)
    metrics["trace.untraced_p50_ms"] = plain_p50
    metrics["trace.overhead_ms"] = traced_p50 - plain_p50
    # Each operation's parts sum to its latency by construction, so this
    # compares the mean operation with the median one: a long tail (a
    # slow stretch of the host) moves it.  It is reported, not failed.
    if abs(metrics["e2e.accounted_ratio"] - 1.0) > ACCOUNTING_BOUND:
        warnings.append(
            f"layers + unattributed = {metrics['e2e.accounted_ratio']:.3f} x the "
            f"traced p50, outside the {ACCOUNTING_BOUND:.0%} bound")
    return metrics, problems[:20], warnings


def tree_problems(ops) -> list[str]:
    problems = []
    for round_index, op, start, end, att in ops:
        parents = build_tree(att.spans)
        problems += [f"round {round_index} op {op}: {p}"
                     for p in check_tree(start, end, att.spans, parents)]
    return problems[:20]


def write_spans(path: Path, ops) -> None:
    """One line per operation root and per span, times in ms from the
    operation's start; ``(round, op)`` names the operation."""
    with path.open("w") as out:
        for round_index, op, start, end, att in ops:
            out.write(json.dumps({"round": round_index, "op": op, "root": True,
                                  "latency_ms": (end - start) * 1e3}) + "\n")
            parents = build_tree(att.spans)
            for s in att.spans:
                out.write(json.dumps({
                    "round": round_index, "op": op, "side": s.side, "id": s.id,
                    "parent": parents[s.key], "name": s.name,
                    "thread": s.thread,
                    "start_ms": (s.start - start) * 1e3,
                    "end_ms": (s.end - start) * 1e3,
                    "bytes": s.nbytes, "failed": s.failed}) + "\n")


def run_record(args, rounds, samples: dict[str, int]) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "per_round": [{
            "setup_s": r.setup_s,
            "ops": sum(len(p.latencies) for p in r.phases),
            **{f"p{q}_ms": percentile([x for p in r.phases for x in p.latencies], q) * 1e3
               for q in (50, 75, 90)},
        } for r in rounds if any(p.latencies for p in r.phases)],
        "payload_sha256": [r.payload_sha256 for r in rounds],
        "rss": {"ops": rounds[0].rss_ops,
                "growth_MB_per_1000_ops": rss_growth(rounds[0])},
        "samples": samples,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "network": "loopback: both processes on 127.0.0.1 of one host, "
                   "no real link",
        "concurrency": "closed loop, 1 operation in flight",
    }


def summarize(args, rounds, ops) -> tuple[dict, dict]:
    """The result line and the run record; ``ops`` are the traced
    operations' attributions (empty for an untraced run)."""
    phases = [p for r in rounds for p in r.phases]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for r in rounds for p in r.problems]
    plain = [x for p in _phases(rounds, "plain") for x in p.latencies]
    if args.trace:
        traced = [x for p in _phases(rounds, "traced") for x in p.latencies]
        values, attribution_problems, warnings = per_layer(rounds, ops)
        problems += attribution_problems + tree_problems(ops)
        units = per_layer_units()
        record = run_record(args, rounds, {
            "e2e.traced_p50_ms": len(traced),
            "trace.untraced_p50_ms": len(plain),
            "per_layer_ops": len(ops)})
        record["accounted_ratio"] = values["e2e.accounted_ratio"]
        record["warnings"] = warnings
    else:
        values = end_to_end(rounds)
        units = END_TO_END_UNITS
        record = run_record(args, rounds, {"latency_p50_ms": len(plain),
                                           "latency_p75_ms": len(plain)})
    record["problems"] = problems
    record["failed_ratio"] = failed / attempted if attempted else 1.0
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
