"""XML text -> element tree: one iterative loop over regex tokens.

Supports the XML subset JXTA documents actually use: elements, attributes
(single or double quoted), character data, comments, processing
instructions / the XML declaration, and CDATA sections.  DTDs and external
entities are intentionally rejected — this is a security-focused package
and entity expansion is a classic attack surface.

Compiled regexes match a whole start tag (attributes included) or end tag
in one call, and ``str.find`` jumps over character data, comments, CDATA
and PIs, so no Python code runs per character.  Open elements live on an
explicit stack capped at :data:`MAX_DEPTH`, which also keeps the recursive
serializer, canonicalizer and ``Element.iter`` within Python's stack.
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xmllib.element import NAME_PATTERN, Element
from repro.xmllib.escape import unescape

# Protocol limit on element nesting, far above any JXTA document (a signed
# advertisement inside a message nests about a dozen levels).
MAX_DEPTH = 256

_WS = "[ \t\r\n]"
_VALUE = "\"[^\"]*\"|'[^']*'"
_ATTRS = re.compile(f"{_WS}*({NAME_PATTERN}){_WS}*={_WS}*({_VALUE})")
# The lookahead stops a tag name from being split into name + attribute.
_START_TAG = re.compile(
    f"<({NAME_PATTERN})(?![-A-Za-z0-9_:.])"
    f"((?:{_WS}*{NAME_PATTERN}{_WS}*={_WS}*(?:{_VALUE}))*){_WS}*(/?)>")
_END_TAG = re.compile(rf"</({NAME_PATTERN}){_WS}*>")
_WS_RUN = re.compile(f"{_WS}*")


def parse(text: str) -> Element:
    """Parse an XML document (or fragment with one root element)."""
    try:
        return _parse(text)
    except ValueError as exc:   # a bad entity or character reference
        raise XMLParseError(str(exc)) from exc


def _parse(text: str) -> Element:
    pos = _skip_misc(text, 0)
    # Open elements as (tag, attributes, children, text parts).
    stack: list[tuple[str, dict[str, str], list[Element], list[str]]] = []
    root: Element | None = None
    while root is None:
        if stack:
            lt = text.find("<", pos)
            if lt == -1:
                raise XMLParseError(f"unexpected end of input inside <{stack[-1][0]}>")
            if lt > pos:
                stack[-1][3].append(unescape(text[pos:lt]))
            pos = lt
            mark = text[pos + 1:pos + 2]
            if mark == "/":
                end = _END_TAG.match(text, pos)
                if end is None:
                    raise XMLParseError(f"malformed end tag at offset {pos}")
                tag, attrib, children, parts = stack.pop()
                if end[1] != tag:
                    raise XMLParseError(f"mismatched closing tag </{end[1]}> for <{tag}>")
                content = "".join(parts)
                if children and content.strip():
                    raise XMLParseError(f"mixed content inside <{tag}> is unsupported")
                elem = Element(tag, attrib, "" if children else content, children)
                if stack:
                    stack[-1][2].append(elem)
                else:
                    root = elem
                pos = end.end()
                continue
            if text.startswith("<!--", pos):
                pos = _skip_past(text, "-->", pos + 4)
                continue
            if text.startswith("<![CDATA[", pos):
                end_cdata = _skip_past(text, "]]>", pos + 9)
                stack[-1][3].append(text[pos + 9:end_cdata - 3])
                pos = end_cdata
                continue
            if mark == "!":
                raise XMLParseError("DTD/entity declarations are not allowed")
            if mark == "?":
                pos = _skip_past(text, "?>", pos + 2)
                continue
        start = _START_TAG.match(text, pos)
        if start is None:
            raise XMLParseError(f"expected a start tag at offset {pos}: "
                                f"...{text[pos:pos + 24]!r}")
        if len(stack) == MAX_DEPTH:
            raise XMLParseError(f"elements nest deeper than {MAX_DEPTH} levels")
        tag, raw_attrs, empty = start.groups()
        attrib = _attributes(raw_attrs, tag) if raw_attrs else {}
        pos = start.end()
        if not empty:
            stack.append((tag, attrib, [], []))
        elif stack:
            stack[-1][2].append(Element(tag, attrib))
        else:
            root = Element(tag, attrib)
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XMLParseError(f"trailing content after the root element at offset {pos}")
    return root


def _attributes(raw: str, tag: str) -> dict[str, str]:
    attrib: dict[str, str] = {}
    for name, quoted in _ATTRS.findall(raw):
        if name in attrib:
            raise XMLParseError(f"duplicate attribute {name!r} on <{tag}>")
        attrib[name] = unescape(quoted[1:-1])
    return attrib


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments, and PIs/XML declaration between elements."""
    while True:
        pos = _WS_RUN.match(text, pos).end()
        if text.startswith("<?", pos):
            pos = _skip_past(text, "?>", pos + 2)
        elif text.startswith("<!--", pos):
            pos = _skip_past(text, "-->", pos + 4)
        elif text.startswith("<!DOCTYPE", pos) or text.startswith("<!ENTITY", pos):
            raise XMLParseError("DTD/entity declarations are not allowed")
        else:
            return pos


def _skip_past(text: str, terminator: str, pos: int) -> int:
    end = text.find(terminator, pos)
    if end == -1:
        raise XMLParseError(f"unterminated construct, expected {terminator!r}")
    return end + len(terminator)

