"""Passive eavesdropper (§2.3 threat 1: "transmitted data may be easily
eavesdropped, since no data privacy is provided").

A transport tap that records every frame and scans the observed bytes
for plaintext strings.  Against the plain primitives it harvests
passwords and chat text; against the secure primitives it sees only
envelopes.

The tap installs on any :class:`~repro.net.adversary.AdversarySurface`:
hand :meth:`attach` a :class:`~repro.sim.network.SimNetwork` or a
:class:`~repro.net.tcp.TcpTransport` and the same eavesdropper observes
the same frames (``tests/attacks/test_transport_parity.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.adversary import adversary_surface
from repro.net.base import Frame


@dataclass
class Eavesdropper:
    """Records all traffic; offers plaintext-search helpers."""

    frames: list[Frame] = field(default_factory=list)

    def observe(self, frame: Frame) -> None:
        self.frames.append(frame)

    def attach(self, backend) -> "Eavesdropper":
        """Start observing ``backend`` (any transport)."""
        adversary_surface(backend).add_tap(self)
        return self

    def detach(self, backend) -> None:
        adversary_surface(backend).remove_tap(self)

    # -- analysis -------------------------------------------------------------

    def saw_bytes(self, needle: bytes) -> bool:
        """Did the literal byte string cross the wire in the clear?"""
        return any(needle in f.payload for f in self.frames)

    def saw_text(self, needle: str) -> bool:
        return self.saw_bytes(needle.encode("utf-8"))

    def frames_between(self, src: str, dst: str) -> list[Frame]:
        return [f for f in self.frames if f.src == src and f.dst == dst]

    def harvest_credentials(self) -> list[tuple[str, str]]:
        """Scrape (username, password) pairs from observed login requests.

        Works exactly as a 2009 packet sniffer would: find login_req
        messages and read their clear-text elements.  Secure logins never
        match because the credentials are inside an envelope.
        """
        from repro.errors import ReproError
        from repro.jxta.messages import Message

        found = []
        for frame in self.frames:
            try:
                msg = Message.from_wire(frame.payload)
            except ReproError:
                continue
            if msg.msg_type == "login_req" and msg.has("username") and msg.has("password"):
                found.append((msg.get_text("username"), msg.get_text("password")))
        return found

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self.frames)

    def __len__(self) -> int:
        return len(self.frames)
