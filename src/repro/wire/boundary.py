"""The dispatch-side validation boundary: decode, count, drop.

One place turns a raw inbound :class:`~repro.jxta.messages.Message`
into either a validated decoded view or a counted rejection.  Every
rejection lands under ``wire.reject.<msg_type>.<reason>`` (the whole
frame-too-large case, where no type can be parsed, under the flat
``wire.reject.oversize``) and never escapes dispatch as an exception.
"""

from __future__ import annotations

import re

from repro import obs
from repro.jxta.messages import Message
from repro.wire import catalogue
from repro.wire.schema import (
    REASON_OVERSIZE,
    REASON_UNKNOWN_TYPE,
    DecodedFrame,
    WireRejected,
)

#: msg_type length ceiling inside metric names; matches ``obs._SEGMENT``.
_MAX_SEGMENT = 48
_BAD_CHARS = re.compile(r"[^A-Za-z0-9_\-]")


def sanitize_msg_type(msg_type: str) -> str:
    """Fold an attacker-controlled msg_type into one safe metric segment."""
    cleaned = _BAD_CHARS.sub("-", msg_type)[:_MAX_SEGMENT]
    return cleaned or "unknown"


#: Reject counters interned per (msg_type, reason) so a malformed-frame
#: storm skips the sanitize + format work after the first occurrence.
#: Bounded: both segments are drawn from the catalogue/taxonomy on the
#: defender side, and attacker-minted types collapse via sanitize.
_REJECT_COUNTERS: dict[tuple[str, str], obs.InternedCounter] = {}
_REJECT_CACHE_MAX = 4096

_M_OVERSIZE = obs.InternedCounter(f"wire.reject.{REASON_OVERSIZE}")


def count_reject(msg_type: str, reason: str) -> None:
    """Record one boundary rejection in the process metrics registry."""
    counter = _REJECT_COUNTERS.get((msg_type, reason))
    if counter is None:
        if len(_REJECT_COUNTERS) >= _REJECT_CACHE_MAX:
            _REJECT_COUNTERS.clear()
        counter = _REJECT_COUNTERS[(msg_type, reason)] = obs.InternedCounter(
            f"wire.reject.{sanitize_msg_type(msg_type)}.{reason}")
    counter.incr()


def count_oversize() -> None:
    """Record a frame refused by the global wire cap (type unparsed)."""
    _M_OVERSIZE.incr()


def decode(message: Message) -> DecodedFrame:
    """Validated, typed view of ``message`` (memoized on the instance).

    Raises :class:`WireRejected` — reason ``unknown_type`` when the
    msg_type is not in the catalogue, otherwise the precise field-level
    reason.  The decoded view is cached on the message and invalidated
    by any ``add_*`` mutation.
    """
    cached = message._decoded
    if isinstance(cached, DecodedFrame):
        return cached
    spec = catalogue.get(message.msg_type)
    if spec is None:
        raise WireRejected(message.msg_type, REASON_UNKNOWN_TYPE)
    view = spec.compiled()(message)
    message._decoded = view
    return view


def check(message: Message) -> bool:
    """Boundary predicate: decode or count-and-refuse, never raise."""
    try:
        decode(message)
    except WireRejected as exc:
        count_reject(exc.msg_type, exc.reason)
        return False
    return True
