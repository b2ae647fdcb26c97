"""Typed protocol event hooks — the operator/attack-harness surface.

Where :mod:`repro.overlay.events` models the *application* events the
paper's Client Module throws (section 2.2), this bus carries the
*observability* hooks of the secure protocol machinery itself: which
step of secureConnection / secureLogin / secureMsgPeer just happened,
and in particular which *defence* just fired.  Attack drivers and tests
subscribe to prove a defence triggered; operators subscribe to feed
alerting.

The hook catalogue below is typed in the documentation sense (each hook
has a fixed, documented keyword payload — the ipcs event-reference
idiom): subscribing or emitting an unknown hook raises immediately, and
every emit is counted as ``events.<hook>`` in the metrics registry.

Listener errors are contained: a crashing subscriber never breaks the
protocol path that emitted the hook (counted as
``events.listener_errors``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.metrics import Registry, get_registry

EventListener = Callable[..., None]

#: hook name -> documented keyword payload (the typed contract).
HOOKS: dict[str, str] = {
    "on_connect":             "peer, broker, secure",
    "on_login":               "peer, username, groups, secure",
    "on_logout":              "peer, username",
    "on_msg_sent":            "peer, to_peer, group, n_bytes, secure",
    "on_msg_received":        "peer, from_peer, group, n_bytes",
    "on_msg_rejected":        "peer, reason",
    "on_credential_issued":   "peer, subject",
    "on_credential_rejected": "peer, reason",
    "on_replay_blocked":      "peer, kind",   # kind: 'sid' | 'nonce'
    "on_broker_rejected":     "peer, broker, reason",
    "on_frame_dropped":       "src, dst, n_bytes",
    "on_retry":               "peer, primitive, attempt, reason",
    "on_degraded":            "peer, primitive, reason",
    "on_breaker_state":       "name, state",  # state: closed|half_open|open
}


class ProtocolEvents:
    """Synchronous pub/sub over the :data:`HOOKS` catalogue."""

    def __init__(self, registry: Registry | None = None) -> None:
        self._listeners: dict[str, list[EventListener]] = {}
        self._registry = registry

    def _reg(self) -> Registry:
        return self._registry if self._registry is not None else get_registry()

    @staticmethod
    def _check(hook: str) -> None:
        if hook not in HOOKS:
            raise ValueError(
                f"unknown observability hook {hook!r}; known: {sorted(HOOKS)}")

    def on(self, hook: str, listener: EventListener) -> EventListener:
        """Subscribe; returns the listener so it can double as a decorator."""
        self._check(hook)
        self._listeners.setdefault(hook, []).append(listener)
        return listener

    def off(self, hook: str, listener: EventListener) -> None:
        self._check(hook)
        self._listeners.get(hook, []).remove(listener)

    # ipcs-style aliases
    subscribe = on
    unsubscribe = off

    def listeners(self, hook: str) -> list[EventListener]:
        self._check(hook)
        return list(self._listeners.get(hook, []))

    def emit(self, hook: str, **payload: Any) -> None:
        self._check(hook)
        reg = self._reg()
        reg.incr(f"events.{hook}")
        listeners = self._listeners.get(hook)
        if not listeners:
            return
        for listener in list(listeners):
            try:
                listener(**payload)
            except Exception:  # a bad subscriber must not break the protocol
                reg.incr("events.listener_errors")

    def clear(self) -> None:
        self._listeners.clear()


#: The process-local default hook bus.
_EVENTS = ProtocolEvents()


def get_events() -> ProtocolEvents:
    return _EVENTS


def set_events(events: ProtocolEvents) -> ProtocolEvents:
    global _EVENTS
    _EVENTS = events
    return events


def emit(hook: str, **payload: Any) -> None:
    """Emit on the process bus: ``obs.emit("on_replay_blocked", ...)``."""
    _EVENTS.emit(hook, **payload)


def on(hook: str, listener: EventListener) -> EventListener:
    """Subscribe on the process bus."""
    return _EVENTS.on(hook, listener)
