"""JXTA wire messages.

A JXTA message is an ordered set of named elements.  We model it as an
XML document::

    <Message ns="jxta-overlay" type="login_req">
      <Elem name="username">alice</Elem>
      <Elem name="payload" enc="base64">...</Elem>
      <Elem name="adv"><PipeAdvertisement>...</PipeAdvertisement></Elem>
    </Message>

Element values are strings, bytes (base64-tagged) or nested XML elements.
``to_wire``/``from_wire`` produce/consume the exact bytes that cross the
simulated network, so taps see real serialized traffic and message sizes
are honest.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import FrameTooLargeError, JxtaError, XMLError, XMLParseError
from repro.utils.encoding import b64decode, b64encode
from repro.xmllib import Element, parse, serialize

MESSAGE_TAG = "Message"
ELEM_TAG = "Elem"

#: Default ceiling on the serialized size of a single frame.  Anything
#: larger is refused by :meth:`Message.from_wire` *before* XML parsing —
#: the global backstop against resource-exhaustion frames (the per-field
#: bounds in :mod:`repro.wire` are the fine-grained layer above this).
DEFAULT_MAX_WIRE_BYTES = 8 << 20

_max_wire_bytes = DEFAULT_MAX_WIRE_BYTES


def max_wire_bytes() -> int:
    """The currently configured frame-size ceiling in bytes."""
    return _max_wire_bytes


def set_max_wire_bytes(limit: int) -> int:
    """Reconfigure the frame-size ceiling; returns the previous value."""
    global _max_wire_bytes
    if limit < 1:
        raise ValueError("max wire bytes must be >= 1")
    previous = _max_wire_bytes
    _max_wire_bytes = limit
    return previous


class Message:
    """An ordered, named-element JXTA message."""

    def __init__(self, msg_type: str, ns: str = "jxta-overlay") -> None:
        if not msg_type:
            raise JxtaError("message type must be non-empty")
        self.msg_type = msg_type
        self.ns = ns
        self._elements: list[tuple[str, Any]] = []
        self._decoded: Any = None  # repro.wire decode cache; see invalidate()
        self._wire: bytes | None = None  # serialized-bytes cache

    # -- building ----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached views (decoded frame, serialized bytes) after a
        mutation."""
        self._decoded = None
        self._wire = None

    def add_text(self, name: str, value: str) -> "Message":
        if not isinstance(value, str):
            raise JxtaError(
                f"add_text({name!r}) requires str, got {type(value).__name__}")
        self._elements.append((name, value))
        self.invalidate()
        return self

    def add_bytes(self, name: str, value: bytes) -> "Message":
        self._elements.append((name, bytes(value)))
        self.invalidate()
        return self

    def add_xml(self, name: str, value: Element) -> "Message":
        if not isinstance(value, Element):
            raise JxtaError("add_xml requires an Element")
        self._elements.append((name, value))
        self.invalidate()
        return self

    def add_json(self, name: str, value: dict | list) -> "Message":
        """Convenience for structured payloads (envelopes, lists)."""
        self._elements.append((name, json.dumps(value, sort_keys=True)))
        self.invalidate()
        return self

    # -- reading -----------------------------------------------------------

    def names(self) -> list[str]:
        return [n for n, _ in self._elements]

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self._elements)

    def _get(self, name: str) -> Any:
        for n, v in self._elements:
            if n == name:
                return v
        raise JxtaError(f"message {self.msg_type!r} has no element {name!r}")

    def get_text(self, name: str) -> str:
        v = self._get(name)
        if not isinstance(v, str):
            raise JxtaError(f"element {name!r} is not text")
        return v

    def get_bytes(self, name: str) -> bytes:
        v = self._get(name)
        if not isinstance(v, bytes):
            raise JxtaError(f"element {name!r} is not binary")
        return v

    def get_xml(self, name: str) -> Element:
        v = self._get(name)
        if not isinstance(v, Element):
            raise JxtaError(f"element {name!r} is not XML")
        return v

    def get_json(self, name: str) -> Any:
        try:
            return json.loads(self.get_text(name))
        except json.JSONDecodeError as exc:
            raise JxtaError(f"element {name!r} is not valid JSON: {exc}") from exc

    # -- wire format ---------------------------------------------------------

    def to_element(self) -> Element:
        root = Element(MESSAGE_TAG, attrib={"ns": self.ns, "type": self.msg_type})
        for name, value in self._elements:
            if isinstance(value, Element):
                holder = root.add(ELEM_TAG, attrib={"name": name, "enc": "xml"})
                holder.append(value.deep_copy())
            elif isinstance(value, bytes):
                root.add(ELEM_TAG, attrib={"name": name, "enc": "base64"},
                         text=b64encode(value))
            else:
                root.add(ELEM_TAG, attrib={"name": name}, text=value)
        return root

    def to_wire(self) -> bytes:
        """Serialized frame bytes, memoized until the next mutation.

        A message resent verbatim (datagram retry, group fan-out, relay)
        reuses the buffer it was first serialized into — or, for a
        message that arrived off the wire, the exact buffer it arrived
        in — instead of re-walking the element tree.
        """
        if self._wire is not None:
            return self._wire
        self._wire = serialize(self.to_element()).encode("utf-8")
        return self._wire

    @classmethod
    def from_element(cls, root: Element) -> "Message":
        if root.tag != MESSAGE_TAG:
            raise JxtaError(f"expected <{MESSAGE_TAG}>, got <{root.tag}>")
        msg_type = root.get("type")
        ns = root.get("ns") or "jxta-overlay"
        if not msg_type:
            raise JxtaError("message has no type attribute")
        msg = cls(msg_type, ns=ns)
        for holder in root.findall(ELEM_TAG):
            name = holder.get("name")
            if not name:
                raise JxtaError("message element has no name")
            enc = holder.get("enc")
            if enc == "xml":
                if len(holder.children) != 1:
                    raise JxtaError(f"xml element {name!r} must hold exactly one child")
                msg.add_xml(name, holder.children[0])
            elif enc == "base64":
                msg.add_bytes(name, b64decode(holder.text))
            elif enc is None:
                msg.add_text(name, holder.text)
            else:
                raise JxtaError(f"unknown element encoding {enc!r}")
        return msg

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        if len(wire) > _max_wire_bytes:
            raise FrameTooLargeError(
                f"frame of {len(wire)} bytes exceeds the "
                f"{_max_wire_bytes}-byte wire cap",
                size=len(wire), limit=_max_wire_bytes)
        try:
            root = parse(wire.decode("utf-8"))
        except (UnicodeDecodeError, XMLParseError, XMLError) as exc:
            raise JxtaError(f"undecodable message: {exc}") from exc
        message = cls.from_element(root)
        message._wire = bytes(wire)
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Message {self.ns}:{self.msg_type} elems={self.names()}>"
