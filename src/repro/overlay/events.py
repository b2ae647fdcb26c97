"""The JXTA-Overlay event system.

Applications built on the Client Module react to *events thrown by
functions* executed on message reception (section 2.2).  We model this as
a small synchronous event bus; event names are listed centrally so tests
can assert against the catalogue.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable

from repro.errors import OverlayError

EventListener = Callable[..., None]

#: how many emitted events a bus remembers (oldest dropped first), so a
#: long-lived peer's history stays bounded
HISTORY_MAX = 1024

#: the events the client module can emit (the paper counts 84 across all
#: function sets; this catalogue covers the sets we implement)
EVENT_CATALOGUE = (
    "connected",            # broker connection established
    "connection_failed",
    "logged_in",            # authentication succeeded; groups known
    "login_failed",
    "logged_out",
    "group_created",
    "group_joined",
    "group_left",
    "peer_joined_group",    # another member appeared in one of our groups
    "peer_left_group",
    "advertisement_received",
    "message_received",     # messenger primitives delivered a chat message
    "secure_message_received",
    "message_rejected",     # secure layer refused a message (tamper, key...)
    "file_published",
    "file_list_received",
    "file_received",
    "file_transfer_failed",
    "task_submitted",
    "task_result",
    "presence_update",
    "broker_rejected",      # secureConnection refused the broker
    "credential_issued",
)


class EventBus:
    """Synchronous pub/sub keyed on catalogue event names."""

    def __init__(self, strict: bool = True) -> None:
        self._listeners: dict[str, list[EventListener]] = defaultdict(list)
        self._strict = strict
        self.history: deque[tuple[str, dict[str, Any]]] = deque(
            maxlen=HISTORY_MAX)

    def _check(self, event: str) -> None:
        if self._strict and event not in EVENT_CATALOGUE:
            raise OverlayError(f"unknown event {event!r}")

    def subscribe(self, event: str, listener: EventListener) -> None:
        self._check(event)
        self._listeners[event].append(listener)

    def unsubscribe(self, event: str, listener: EventListener) -> None:
        self._listeners[event].remove(listener)

    def emit(self, event: str, **payload: Any) -> None:
        """Deliver ``payload`` to the listeners and remember its metadata.

        History keeps a message's ``text`` as ``text_len`` only, so
        :data:`HISTORY_MAX` large messages cost their metadata, not their
        bodies; listeners get the text.
        """
        self._check(event)
        if "text" in payload:
            meta = dict(payload)
            meta["text_len"] = len(meta.pop("text"))
            self.history.append((event, meta))
        else:
            self.history.append((event, payload))
        for listener in list(self._listeners[event]):
            listener(**payload)

    def events_named(self, event: str) -> list[dict[str, Any]]:
        return [p for e, p in self.history if e == event]

    def clear_history(self) -> None:
        self.history.clear()
