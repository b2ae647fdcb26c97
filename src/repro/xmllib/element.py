"""A small XML element tree.

JXTA advertisements and messages are XML metadata documents; the paper's
contribution signs and canonicalizes them.  We use our own element type
(rather than ``xml.etree``) so serialization, parsing and canonicalization
are all under the package's control and bit-for-bit stable — a property
XMLdsig depends on.

The model is deliberately simple: an element has a tag, ordered
attributes, an optional text payload, and ordered children.  Mixed content
(text interleaved with children) is not needed by any JXTA document and is
rejected at serialization time.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XMLError

# The ASCII subset of XML's Name production; the parser's tokens share it.
NAME_PATTERN = r"[A-Za-z_:][-A-Za-z0-9_:.]*"
_NAME = re.compile(NAME_PATTERN)


def _check_name(name: str) -> str:
    if _NAME.fullmatch(name) is None:
        raise XMLError(f"invalid XML name: {name!r}")
    return name


class Element:
    """An XML element node."""

    __slots__ = ("tag", "attrib", "text", "children")

    def __init__(self, tag: str, attrib: dict[str, str] | None = None,
                 text: str = "", children: list["Element"] | None = None) -> None:
        self.tag = _check_name(tag)
        self.attrib: dict[str, str] = dict(attrib) if attrib else {}
        for key in self.attrib:
            _check_name(key)
        self.text = text
        self.children: list[Element] = list(children) if children else []

    # -- construction -----------------------------------------------------

    def add(self, tag: str, attrib: dict[str, str] | None = None,
            text: str = "") -> "Element":
        """Create a child element, append it, and return it."""
        child = Element(tag, attrib=attrib, text=text)
        self.children.append(child)
        return child

    def append(self, child: "Element") -> "Element":
        if not isinstance(child, Element):
            raise XMLError("children must be Element instances")
        self.children.append(child)
        return child

    def remove(self, child: "Element") -> None:
        self.children.remove(child)

    def set(self, key: str, value: str) -> None:
        _check_name(key)
        self.attrib[key] = value

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.attrib.get(key, default)

    # -- navigation -------------------------------------------------------

    def find(self, tag: str) -> "Element | None":
        """First direct child with the given tag, or ``None``."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_required(self, tag: str) -> "Element":
        """Like :meth:`find` but raises :class:`XMLError` when absent."""
        child = self.find(tag)
        if child is None:
            raise XMLError(f"<{self.tag}> has no <{tag}> child")
        return child

    def findall(self, tag: str) -> list["Element"]:
        """All direct children with the given tag."""
        return [c for c in self.children if c.tag == tag]

    def findtext(self, tag: str, default: str = "") -> str:
        child = self.find(tag)
        return child.text if child is not None else default

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order traversal including self."""
        yield self
        for child in self.children:
            yield from child.iter()

    # -- comparison / copying ----------------------------------------------

    def deep_copy(self) -> "Element":
        return Element(
            self.tag,
            attrib=dict(self.attrib),
            text=self.text,
            children=[c.deep_copy() for c in self.children],
        )

    def structurally_equal(self, other: "Element") -> bool:
        """Deep equality of tag, attributes, text and child order."""
        if (self.tag != other.tag or self.attrib != other.attrib
                or self.text != other.text
                or len(self.children) != len(other.children)):
            return False
        return all(a.structurally_equal(b)
                   for a, b in zip(self.children, other.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag} attrs={len(self.attrib)} children={len(self.children)}>"
