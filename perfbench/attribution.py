"""Split each operation's wall time across the spans of both processes.

The driver runs one operation at a time, so every span of either
process that falls inside an operation's window ``[start, end]`` belongs
to that operation.  Spans are clipped to the window, then each instant
of the window is credited to the spans *running* at that instant:

* on each thread only the innermost open span runs (spans nest on a
  thread, so that is the one that started last);
* a span in :data:`~spans.WAITING` (a blocking request or send, a frame
  queued for a handler) runs only when no other span does, so a
  requester's time goes to whatever the other process did meanwhile;
* when ``k > 1`` spans run at once (the group receivers on the server's
  handler threads, the driver and the server on their own cores) each
  gets ``1/k`` of the instant and ``(k - 1)`` times it is counted as
  overlap;
* an instant in which no span is open is unattributed: hand-offs
  between threads and processes, and scheduling.

So for every operation the credited self times plus the unattributed
time equal its latency by construction, and the overlap says how much
of the window was shared.  Without concurrency a span's credit is its
duration minus the time its children cover.  :func:`check_credit` tests
what the construction does not guarantee.

:func:`build_tree` gives the causal tree the trace file holds: a span's
parent is the enclosing span on its own thread, else the innermost
waiting span of another thread or process that contains it, else the
operation's root.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from spans import WAITING


@dataclass(frozen=True)
class Span:
    side: str
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    nbytes: int
    failed: bool

    @property
    def key(self) -> tuple[str, int]:
        return self.side, self.id

    @property
    def thread_key(self) -> tuple[str, int]:
        return self.side, self.thread


def load(side: str, records: list[tuple]) -> list[Span]:
    return [Span(side, *record) for record in records]


@dataclass
class OpAttribution:
    latency: float
    self_time: dict[str, float] = field(default_factory=dict)
    inclusive: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    nbytes: dict[str, int] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    unattributed: float = 0.0
    overlap: float = 0.0
    spans: list[Span] = field(default_factory=list)
    #: span key -> the share of the window credited to that span
    credit: dict[tuple[str, int], float] = field(default_factory=dict)


class SpanIndex:
    """Spans sorted by start, for window lookups."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = sorted(spans, key=lambda s: s.start)
        self.starts = [s.start for s in self.spans]
        self.longest = max((s.end - s.start for s in self.spans), default=0.0)

    def within(self, start: float, end: float) -> list[Span]:
        lo = bisect.bisect_left(self.starts, start - self.longest)
        hi = bisect.bisect_left(self.starts, end)
        return [s for s in self.spans[lo:hi] if s.end > start]


def attribute(start: float, end: float, index: SpanIndex) -> OpAttribution:
    """Credit the window ``[start, end]`` to the spans inside it."""
    out = OpAttribution(latency=end - start)
    clipped = []
    for span in index.within(start, end):
        a, b = max(span.start, start), min(span.end, end)
        if b <= a:
            continue
        clipped.append((span, a, b))
        out.spans.append(span)
        out.inclusive[span.name] = out.inclusive.get(span.name, 0.0) + (b - a)
        if span.start >= start:
            out.calls[span.name] = out.calls.get(span.name, 0) + 1
            out.nbytes[span.name] = out.nbytes.get(span.name, 0) + span.nbytes
            if span.failed:
                out.failures[span.name] = out.failures.get(span.name, 0) + 1
    events = sorted({start, end, *(a for _, a, _ in clipped),
                     *(b for _, _, b in clipped)})
    # Sweep the elementary segments between consecutive boundaries.
    by_start = sorted(clipped, key=lambda c: c[1])
    active: list[tuple[Span, float, float]] = []
    cursor = 0
    for left, right in zip(events, events[1:]):
        while cursor < len(by_start) and by_start[cursor][1] <= left:
            active.append(by_start[cursor])
            cursor += 1
        active = [c for c in active if c[2] > left]
        length = right - left
        innermost: dict[tuple[str, int], tuple[Span, float, float]] = {}
        for entry in active:
            span = entry[0]
            held = innermost.get(span.thread_key)
            # ids are drawn when a span opens, so a child's is the larger
            if held is None or (span.start, span.id) > (held[0].start, held[0].id):
                innermost[span.thread_key] = entry
        running = [e[0] for e in innermost.values() if e[0].name not in WAITING]
        if not running:
            running = [e[0] for e in innermost.values()]
        if not running:
            out.unattributed += length
            continue
        share = length / len(running)
        for span in running:
            out.self_time[span.name] = out.self_time.get(span.name, 0.0) + share
            out.credit[span.key] = out.credit.get(span.key, 0.0) + share
        out.overlap += length * (len(running) - 1)
    return out


def check_credit(start: float, end: float, att: OpAttribution,
                 sides: tuple[str, ...], tolerance: float) -> list[str]:
    """Problems with one operation's split (empty when sound): a process
    in ``sides`` with no span in the window (its spans were lost, or its
    clock disagrees), or a span credited with more than the part of it
    that lies inside the window (``tolerance`` seconds of slack)."""
    problems = [f"no span from the {side} process"
                for side in sides if all(s.side != side for s in att.spans)]
    for span in att.spans:
        inside = min(span.end, end) - max(span.start, start)
        if att.credit.get(span.key, 0.0) > inside + tolerance:
            problems.append(f"span {span.key} credited with more than its "
                            f"{inside * 1e3:.4f} ms in the window")
    return problems


def build_tree(spans: list[Span]) -> dict[tuple[str, int], tuple[str, int] | None]:
    """Parent of every span of one operation (``None``: the root)."""
    present = {s.key: s for s in spans}
    waiting = [s for s in spans if s.name in WAITING]
    parents: dict[tuple[str, int], tuple[str, int] | None] = {}
    for span in spans:
        own = (span.side, span.parent)
        if span.parent and own in present:
            parents[span.key] = own
            continue
        holders = [w for w in waiting
                   if w.thread_key != span.thread_key and w.key != span.key
                   and w.start <= span.start and span.end <= w.end]
        if holders:
            inner = min(holders, key=lambda w: w.end - w.start)
            parents[span.key] = inner.key
        else:
            parents[span.key] = None
    return parents


def check_tree(start: float, end: float, spans: list[Span],
               parents: dict[tuple[str, int], tuple[str, int] | None]) -> list[str]:
    """Problems with one operation's span tree (empty when well formed):
    a parent chain must end at the single root without a cycle, and every
    span must lie inside its parent (clipped spans inside the window)."""
    problems = []
    by_key = {s.key: s for s in spans}
    for span in spans:
        seen = {span.key}
        node = parents.get(span.key)
        while node is not None:
            if node in seen or node not in by_key:
                problems.append(f"span {span.key} has a broken parent chain")
                break
            seen.add(node)
            node = parents.get(node)
        parent = parents.get(span.key)
        lo, hi = max(span.start, start), min(span.end, end)
        if parent is None:
            if lo < start or hi > end:
                problems.append(f"span {span.key} leaves the operation")
        else:
            p = by_key[parent]
            if lo < max(p.start, start) or hi > min(p.end, end):
                problems.append(f"span {span.key} leaves its parent {parent}")
    return problems
