"""Session identifiers and replay protection for secureLogin (§4.2.2).

The broker generates a "sufficiently long random session identifier" in
secureConnection and *consumes it exactly once* during secureLogin:

    "Br checks if sid is currently stored.  If that is not the case,
    login is aborted.  Otherwise, Br no longer stores sid and the login
    process continues."

Replaying a captured login blob therefore fails — the sid inside it is
gone.  Sids also expire, and the broker sweeps the expired ones before
each issue.  A flood of connects inside one lifetime is bounded by count:
past :data:`MAX_OUTSTANDING_SIDS` each issue evicts the oldest sid, which
then fails its login like an expired one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.drbg import HmacDrbg
from repro.errors import ReplayError
from repro.sim.clock import VirtualClock

SID_BYTES = 32
DEFAULT_SID_LIFETIME = 300.0  # virtual seconds to complete a login
#: outstanding sids a store holds before each issue evicts the oldest
MAX_OUTSTANDING_SIDS = 1024


@dataclass
class _PendingSid:
    sid: str
    issued_at: float
    expires_at: float
    client_address: str


class SidStore:
    """Broker-side store of outstanding session identifiers.

    Every method holds one lock: on sockets the broker's handler threads
    share the store, and ``sweep`` iterating while ``issue`` inserts
    raises ``OrderedDict mutated during iteration``.
    """

    def __init__(self, clock: VirtualClock, drbg: HmacDrbg,
                 lifetime: float = DEFAULT_SID_LIFETIME) -> None:
        self._clock = clock
        self._drbg = drbg
        self.lifetime = lifetime
        self._pending: OrderedDict[str, _PendingSid] = OrderedDict()
        self._lock = threading.Lock()
        self.issued_total = 0
        self.replays_blocked = 0

    def issue(self, client_address: str) -> str:
        """Mint a fresh sid for a connecting client.

        At :data:`MAX_OUTSTANDING_SIDS` the oldest outstanding sid is
        evicted; :meth:`consume` then rejects it as unknown.
        """
        sid = self._drbg.generate(SID_BYTES).hex()
        with self._lock:
            now = self._clock.now
            self._pending[sid] = _PendingSid(
                sid=sid, issued_at=now, expires_at=now + self.lifetime,
                client_address=client_address)
            self.issued_total += 1
            if len(self._pending) > MAX_OUTSTANDING_SIDS:
                self._pending.popitem(last=False)
        return sid

    def consume(self, sid: str) -> None:
        """Use up a sid; raises :class:`ReplayError` if absent or expired."""
        with self._lock:
            entry = self._pending.pop(sid, None)
            if entry is None:
                self.replays_blocked += 1
                raise ReplayError("session identifier unknown or already used")
            if self._clock.now > entry.expires_at:
                self.replays_blocked += 1
                raise ReplayError("session identifier expired")

    def reset(self) -> None:
        """Forget every outstanding sid (broker crash: RAM state is gone).

        Replay protection is *preserved* by forgetting: a sid issued
        before the crash can never be consumed after it, so a captured
        pre-crash sid replayed against the restarted broker is rejected
        exactly like any unknown sid.
        """
        with self._lock:
            self._pending.clear()

    def sweep(self) -> int:
        """Drop expired sids; returns how many were removed.

        Issue order is expiry order, so popping from the front until the
        first live sid costs O(expired), not O(outstanding).
        """
        with self._lock:
            now = self._clock.now
            removed = 0
            while (self._pending
                   and now > next(iter(self._pending.values())).expires_at):
                self._pending.popitem(last=False)
                removed += 1
        return removed

    @property
    def outstanding(self) -> int:
        return len(self._pending)
