"""Span nesting, error capture, export, and the disabled fast path."""

import json
import threading

import pytest

from repro import obs
from repro.obs.trace import _NULL_SPAN, Tracer
from repro.overlay import primitives
from repro.sim.metrics import Metrics


def test_nested_spans_build_one_tree(fresh_obs):
    tracer = obs.get_tracer()
    with obs.span("secureLogin", peer="peer:alice"):
        with obs.span("secure_login.sign"):
            pass
        with obs.span("secure_login.envelope"):
            pass
    assert len(tracer.finished) == 1
    root = tracer.finished[0]
    assert root.name == "secureLogin"
    assert root.attrs == {"peer": "peer:alice"}
    assert [c.name for c in root.children] == [
        "secure_login.sign", "secure_login.envelope"]
    assert root.duration_ms >= 0.0
    assert all(c.end_ms is not None for c in root.children)


def test_span_records_duration_histograms(fresh_obs):
    with obs.span("secureConnection"):
        with obs.span("secure_connect.sign"):
            pass
    assert fresh_obs.histogram("span.secureConnection.ms").count == 1
    assert fresh_obs.histogram("span.secure_connect.sign.ms").count == 1


def test_error_is_captured_and_span_still_finishes(fresh_obs):
    tracer = obs.get_tracer()
    with pytest.raises(RuntimeError):
        with obs.span("secureLogin"):
            raise RuntimeError("boom")
    assert len(tracer.finished) == 1
    root = tracer.finished[0]
    assert root.error == "RuntimeError: boom"
    assert root.to_dict()["error"] == "RuntimeError: boom"
    assert tracer.current is None  # stack fully unwound


def test_inner_exception_unwinds_outer_stack(fresh_obs):
    tracer = obs.get_tracer()
    with pytest.raises(ValueError):
        with obs.span("outer"):
            with obs.span("inner"):
                raise ValueError("bad")
    # both spans closed, error attributed to each context it crossed
    assert tracer.current is None
    assert len(tracer.finished) == 1
    assert tracer.finished[0].children[0].error == "ValueError: bad"


def test_each_thread_keeps_its_own_span_and_primitive_stack(fresh_obs):
    """Two threads interleave inside their own primitive and span; each
    child span and ``current_primitive()`` belongs to its own thread."""
    opened = {"a": threading.Event(), "b": threading.Event()}
    a_done = threading.Event()
    seen: dict[str, str | None] = {}

    def body(name, before, after):
        with obs.span(name):
            opened[name].set()
            before()
            with obs.span(name + ".child"):
                seen[name] = primitives.current_primitive()
        after()

    class Peer:
        metrics = Metrics()

        @primitives.primitive("discovery")
        def thread_probe_a(self):
            body("a", lambda: opened["b"].wait(5.0), a_done.set)

        @primitives.primitive("discovery")
        def thread_probe_b(self):
            body("b", lambda: a_done.wait(5.0), lambda: None)

    peer = Peer()
    try:
        thread_a = threading.Thread(target=peer.thread_probe_a)
        thread_a.start()
        assert opened["a"].wait(5.0)
        thread_b = threading.Thread(target=peer.thread_probe_b)
        thread_b.start()
        thread_a.join(5.0)
        thread_b.join(5.0)
    finally:
        primitives.CATALOGUE.pop("thread_probe_a", None)
        primitives.CATALOGUE.pop("thread_probe_b", None)
    assert seen == {"a": "thread_probe_a", "b": "thread_probe_b"}
    trees = {root.name: [child.name for child in root.children]
             for root in obs.get_tracer().finished}
    assert trees == {"a": ["a.child"], "b": ["b.child"]}


def test_disabled_tracing_is_a_shared_noop(fresh_obs):
    fresh_obs.disable()
    tracer = obs.get_tracer()
    ctx = obs.span("secureLogin")
    assert ctx is _NULL_SPAN
    with ctx:
        pass
    assert tracer.finished == []
    assert fresh_obs.metric_names() == []


def test_max_traces_evicts_oldest(fresh_obs):
    tracer = obs.set_tracer(Tracer(registry=fresh_obs, max_traces=3))
    for i in range(5):
        with tracer.span(f"op{i}"):
            pass
    assert [s.name for s in tracer.finished] == ["op2", "op3", "op4"]


def test_current_tracks_innermost_open_span(fresh_obs):
    tracer = obs.get_tracer()
    assert tracer.current is None
    with tracer.span("a"):
        assert tracer.current.name == "a"
        with tracer.span("b"):
            assert tracer.current.name == "b"
        assert tracer.current.name == "a"
    assert tracer.current is None


def test_export_roundtrip(fresh_obs, tmp_path):
    tracer = obs.get_tracer()
    with obs.span("secureMsgPeer", to_peer="peer:bob"):
        with obs.span("secure_msg.seal"):
            pass
    out = tmp_path / "traces.json"
    tracer.export(str(out))
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data == tracer.to_dicts()
    assert data[0]["name"] == "secureMsgPeer"
    assert data[0]["attrs"] == {"to_peer": "peer:bob"}
    assert data[0]["children"][0]["name"] == "secure_msg.seal"


def test_clear_drops_everything(fresh_obs):
    tracer = obs.get_tracer()
    with tracer.span("x"):
        pass
    tracer.clear()
    assert tracer.finished == [] and tracer.current is None
