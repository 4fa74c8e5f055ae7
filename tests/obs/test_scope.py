"""``obs.scope``: install an obs triple for a block, restore the old one."""

from __future__ import annotations

import pytest

from repro import obs


def _current() -> obs.ObsState:
    return obs.ObsState(obs.get_registry(), obs.get_tracer(),
                        obs.get_events())


def test_fresh_triple_is_installed_then_restored():
    before = _current()
    with obs.scope() as state:
        assert _current() == state
        assert state.registry is not before.registry
        assert state.registry.enabled
        obs.get_registry().incr("scope.probe")
    assert _current() == before
    assert state.registry.count("scope.probe") == 1


def test_disabled_scope():
    with obs.scope(enabled=False) as state:
        assert not obs.get_registry().enabled
    assert not state.registry.enabled


def test_reentering_a_state_keeps_its_counts():
    with obs.scope() as state:
        obs.get_registry().incr("scope.probe")
    with obs.scope(state) as again:
        assert again is state
        obs.get_registry().incr("scope.probe")
    assert state.registry.count("scope.probe") == 2


def test_restores_after_an_exception():
    before = _current()
    with pytest.raises(RuntimeError):
        with obs.scope():
            raise RuntimeError("boom")
    assert _current() == before


def test_hook_subscribers_stay_inside():
    seen = []
    with obs.scope():
        obs.on("on_retry", lambda **kw: seen.append(kw))
        obs.emit("on_retry", attempt=1)
    obs.emit("on_retry", attempt=2)
    assert [kw["attempt"] for kw in seen] == [1]
