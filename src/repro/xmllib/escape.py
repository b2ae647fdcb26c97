"""XML character escaping for text nodes and attribute values."""

from __future__ import annotations

import re

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "\n": "&#10;", "\t": "&#9;", "\r": "&#13;"}

_ENTITY_MAP = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'",
}
# ASCII digits only: int() alone would also take "1_0", "+65" and " 65".
_CHAR_REF = re.compile(r"#(?:([0-9]+)|[xX]([0-9a-fA-F]+))")


# str.translate with a precomputed table is the fastest pure-Python way
# to escape; these run on every serialized text node.
_TEXT_TABLE = str.maketrans(_TEXT_ESCAPES)
_ATTR_TABLE = str.maketrans(_ATTR_ESCAPES)


def escape_text(text: str) -> str:
    """Escape character data for a text node."""
    return text.translate(_TEXT_TABLE)


def escape_attr(text: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return text.translate(_ATTR_TABLE)


def unescape(text: str) -> str:
    """Resolve the five predefined entities plus numeric references.

    Text without ``&`` is returned as is; otherwise the loop runs once per
    reference and copies the slices between them.
    """
    amp = text.find("&")
    if amp == -1:
        return text
    out: list[str] = []
    pos = 0
    while amp != -1:
        end = text.find(";", amp + 1)
        if end == -1:
            raise ValueError(f"unterminated entity reference at offset {amp}")
        out.append(text[pos:amp])
        out.append(_resolve(text[amp + 1:end]))
        pos = end + 1
        amp = text.find("&", pos)
    out.append(text[pos:])
    return "".join(out)


def _resolve(name: str) -> str:
    char = _ENTITY_MAP.get(name)
    if char is not None:
        return char
    ref = _CHAR_REF.fullmatch(name)
    if ref is None:
        raise ValueError(f"unknown entity &{name};")
    decimal, hexadecimal = ref.groups()
    code = int(decimal) if decimal is not None else int(hexadecimal, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"&{name}; is not a Unicode scalar value")
    return chr(code)
