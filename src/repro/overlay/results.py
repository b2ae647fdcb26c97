"""The unified primitive result type.

Historically the Client Module primitives returned an inconsistent mix:
``send_msg_peer`` a bare ``bool``, ``send_msg_peer_group`` an ``int``
delivery count, ``request_file`` raw ``bytes`` (or raised).  With the
robustness layer there is more to report than one scalar — how many
attempts a call burned, whether it completed degraded (e.g. a partial
group delivery or a fail-over broker), and how much virtual time it
cost.  :class:`PrimitiveResult` carries all of that.

The explicit accessors are the API: ``result.ok`` answers "did the
primitive succeed", ``result.value`` is the payload (delivery count,
file bytes, sent flag), ``result.unwrap()`` is value-or-raise.
The ``__bool__`` / ``__int__`` shims that once made the object a
drop-in stand-in for the legacy bare returns went through their
deprecation cycle and are gone — truth-testing would collapse the
attempts/degraded story into one bit, which is exactly what this type
exists to avoid, so ``bool(result)`` raises :class:`TypeError` naming
``.ok``.  Sequence access (``len``/iteration/indexing) still delegates
to ``value`` for payload-carrying results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class PrimitiveResult:
    """Outcome of one Client Module primitive invocation.

    Attributes
    ----------
    ok:
        The primitive achieved its goal (full delivery, file verified...).
    value:
        The legacy bare return value (``bool`` sent-flag, ``int``
        delivery count, ``bytes`` content) — what the primitive used to
        return before the redesign.
    attempts:
        Wire attempts consumed, 1 when the first try succeeded.
    elapsed_ms:
        Virtual-clock milliseconds spent inside the primitive,
        backoff waits included.
    degraded:
        Completed, but not cleanly: retries were needed, a fallback
        broker answered, or a group delivery was partial.
    error:
        The last transport-class error seen (``None`` on clean success);
        kept even when ``ok`` is ``True`` so operators can see what the
        retries papered over.
    """

    ok: bool
    value: Any = None
    attempts: int = 1
    elapsed_ms: float = 0.0
    degraded: bool = False
    error: Exception | None = field(default=None, compare=False)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrimitiveResult):
            return (self.ok, self.value, self.attempts, self.degraded) == \
                   (other.ok, other.value, other.attempts, other.degraded)
        return self.value == other

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = None  # mutable + value-delegating equality

    def __bool__(self) -> bool:
        # without this, truth-testing would fall back to ``__len__``: a
        # ``TypeError`` for a bool or int value, and "is the content
        # empty" for a bytes one
        raise TypeError("PrimitiveResult has no truth value; "
                        "test result.ok instead")

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return iter(self.value)

    def __getitem__(self, item):
        return self.value[item]

    def unwrap(self) -> Any:
        """The legacy value on success; re-raises the recorded error on
        failure (or :class:`~repro.errors.PrimitiveError` if none)."""
        if self.ok:
            return self.value
        if self.error is not None:
            raise self.error
        from repro.errors import PrimitiveError
        raise PrimitiveError("primitive failed without a recorded error")
