"""Observability-suite fixtures: a fresh, isolated obs stack per test."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture()
def fresh_obs():
    """Swap in an enabled Registry/Tracer/ProtocolEvents; restore after.

    Yields the registry (tracer and bus are reachable via obs.get_*).
    Tests using this fixture see only their own recordings, regardless of
    what the rest of the session did to the process-default instances.
    """
    with obs.scope() as state:
        yield state.registry
