"""Shared helpers for the wire suite.

The valid-sample and mutation builders were promoted to
:mod:`repro.wire.fuzz` (the scenario engine's FrameStorm adversary
replays the same corpus); they are re-exported here so the suite keeps
one import point.  Only the registry plumbing is test-local.
"""

from __future__ import annotations

import contextlib

from repro import obs
from repro.wire.fuzz import add_field, build, mutations  # noqa: F401

__all__ = ["add_field", "build", "fresh_registry", "mutations",
           "wire_reject_counts"]


@contextlib.contextmanager
def fresh_registry():
    """Swap in a fresh metrics registry; restore on exit."""
    saved = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        yield registry
    finally:
        obs.set_registry(saved)


def wire_reject_counts(registry) -> dict[str, int]:
    """Every ``wire.reject.*`` counter the registry recorded."""
    return {name: registry.count(name)
            for name in registry.metric_names()
            if name.startswith("wire.reject.")}
