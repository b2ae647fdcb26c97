"""Observability-suite fixtures: a fresh, isolated obs stack per test."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture()
def fresh_obs():
    """Swap in a fresh Registry/Tracer/ProtocolEvents; restore after.

    Yields the registry (tracer and bus are reachable via obs.get_*).
    Tests using this fixture see only their own recordings, regardless of
    what the rest of the session did to the process-default instances.
    """
    saved = (obs.get_registry(), obs.get_tracer(), obs.get_events())
    registry = obs.set_registry(obs.Registry())
    obs.set_tracer(obs.Tracer(registry=registry))
    obs.set_events(obs.ProtocolEvents(registry=registry))
    try:
        yield registry
    finally:
        obs.set_registry(saved[0])
        obs.set_tracer(saved[1])
        obs.set_events(saved[2])
