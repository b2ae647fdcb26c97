"""Link-capability negotiation shared by brokers and client peers.

Modeled on the resumption-suite negotiation: on connect, either side
may advertise which batch-payload codecs it can decode and the highest
zlib level it is willing to spend (``link_caps_req``); the responder
answers with the codec and level it actually selected
(``link_caps_ok``) and seeds its *own* outbound compression toward the
requester with the same level, so one round trip configures the link
symmetrically.  A responder that never enabled link batching (or has
compression disabled by policy) answers ``codec="none"``, which keeps
the exchange harmless against any endpoint.

The mixin assumes the host class provides ``self.control`` (a
:class:`~repro.overlay.control.ControlModule`), ``self.address`` and
``self.clock`` — exactly the surface :class:`~repro.overlay.broker.Broker`
and :class:`~repro.overlay.client.ClientPeer` share.
"""

from __future__ import annotations

from repro import wire
from repro.errors import NetworkError
from repro.jxta.messages import Message
from repro.overlay.policy import (
    DEFAULT_LINK_POLICY,
    LinkPolicy,
    link_breaker_factory,
)

#: batch-payload codecs this implementation can decode, best first
SUPPORTED_CODECS = ("zlib",)


class LinkCapsMixin:
    """Opt-in link batching plus the capability exchange, both sides."""

    #: link-layer tuning; ``None`` until :meth:`enable_link_batching`
    link_policy: LinkPolicy | None = None

    def enable_link_batching(self, policy: LinkPolicy | None = None, *,
                             breaker_factory=None):
        """Install a link scheduler on this entity's transport.

        Returns the scheduler.  The transport has one scheduler for all
        of its endpoints: the first call installs it, a later one (from
        any node on the same transport) only swaps in its policy and
        keeps every link already negotiated.  Batching stays off until
        some node calls this — the legacy one-frame-per-send wire is
        the default.
        """
        policy = policy if policy is not None else DEFAULT_LINK_POLICY
        self.link_policy = policy
        if breaker_factory is None:
            breaker_factory = link_breaker_factory(self.clock)
        return self.control.endpoint.configure_links(
            policy, breaker_factory=breaker_factory)

    def negotiate_link(self, dst: str) -> int:
        """Run the capability exchange toward ``dst``.

        Offers every supported codec at this side's policy level and
        applies whatever the responder selected to this side's outbound
        queue for the link.  Returns the negotiated zlib level (0 when
        either side declined or the exchange failed).
        """
        policy = self.link_policy
        if policy is None or policy.compress_level <= 0:
            return 0
        req = Message("link_caps_req")
        req.add_json("codecs", list(SUPPORTED_CODECS))
        req.add_text("level", str(policy.compress_level))
        try:
            resp = self.control.endpoint.request(dst, req)
        except NetworkError:
            return 0
        if resp.msg_type != "link_caps_ok":
            return 0
        try:
            frame = wire.decode(resp)
        except Exception:
            return 0
        if frame["codec"] not in SUPPORTED_CODECS:
            return 0
        level = min(int(frame["level"]), policy.compress_level)
        if level <= 0:
            return 0
        self._apply_link_compression(dst, level)
        return level

    def fn_link_caps(self, message: Message, src: str) -> Message:
        """Responder side of the exchange (registered on both roles)."""
        frame = wire.decode(message)
        offered_codecs = frame["codecs"]
        offered_level = int(frame["level"])
        policy = self.link_policy
        level = 0
        if (policy is not None and policy.compress_level > 0
                and offered_level > 0
                and isinstance(offered_codecs, list)
                and "zlib" in offered_codecs):
            level = min(offered_level, policy.compress_level)
        if level > 0 and not self._apply_link_compression(src, level):
            level = 0
        out = Message("link_caps_ok")
        out.add_text("codec", "zlib" if level > 0 else "none")
        out.add_text("level", str(level))
        return out

    def _apply_link_compression(self, dst: str, level: int) -> bool:
        """Seed outbound compression toward ``dst``; False if no scheduler."""
        try:
            self.control.endpoint.net.set_link_compression(
                self.address, dst, level)
        except NetworkError:
            return False
        return True
