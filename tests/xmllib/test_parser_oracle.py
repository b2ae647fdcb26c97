"""The parser against the standard library's ``xml.etree.ElementTree``.

ElementTree (expat underneath) is the oracle: on every well-formed
document in the subset JXTA uses, both must agree on each element's tag,
attributes and text.  Documents come from Hypothesis (entity-heavy text
and attribute values written straight as XML source) and from a real
quickstart run.  Malformed input — including a real ``secure_login_ok``
frame cut at every offset — must raise ``XMLParseError`` and nothing
else.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xmllib import Element, parse

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


def assert_same_tree(ours: Element, theirs: ET.Element) -> None:
    assert ours.tag == theirs.tag
    assert ours.attrib == theirs.attrib
    children = list(theirs)
    assert len(ours.children) == len(children)
    if children:
        # whitespace between child elements is insignificant here
        assert ours.text == "" and not (theirs.text or "").strip()
    else:
        assert ours.text == (theirs.text or "")
    for mine, child in zip(ours.children, children):
        assert not (child.tail or "").strip()
        assert_same_tree(mine, child)


# -- generated documents ------------------------------------------------------

# No namespace prefixes: expat would demand a declaration for them.
_names = st.from_regex(r"[A-Za-z_][-A-Za-z0-9_.]{0,6}", fullmatch=True)
# Characters XML allows literally; a literal CR would be normalised by
# expat, "]" could close a CDATA-looking "]]>" and "<"/"&" need escaping.
_plain = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="<&]\r\ufffe\uffff",
).filter(lambda c: c >= " " or c in "\t\n")
# Code points a character reference may name in XML 1.0.
_referable = st.one_of(
    st.sampled_from([0x9, 0xA, 0xD]),
    st.integers(0x20, 0xD7FF),
    st.integers(0xE000, 0xFFFD),
    st.integers(0x10000, 0x10FFFF),
)
_reference = st.one_of(
    st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&apos;"]),
    _referable.map(lambda c: f"&#{c};"),
    _referable.map(lambda c: f"&#x{c:x};"),
    _referable.map(lambda c: f"&#x{c:X};"),
)


def _pieces(plain):
    return st.lists(st.one_of(_reference, st.text(plain, max_size=8)),
                    max_size=8).map("".join)


_text = st.lists(st.one_of(
    _pieces(_plain),
    st.text(_plain, max_size=12).map(lambda t: f"<![CDATA[{t}]]>"),
    st.just("<!-- note -->"),
    st.just("<?pi data?>"),
), max_size=4).map("".join)
# Literal tabs and newlines in attribute values are normalised by expat.
_attr_value = _pieces(_plain.filter(lambda c: c not in "\t\n"))
_gap = st.sampled_from(["", " ", "\n  ", "<!-- c -->", "\n<?pi?>\n"])


@st.composite
def documents(draw, depth: int = 0) -> str:
    tag = draw(_names)
    names = draw(st.lists(_names, max_size=3, unique=True))
    attrs = "".join(
        f' {name}="{draw(_attr_value).replace(chr(34), "&quot;")}"'
        if draw(st.booleans()) else
        f" {name}='{draw(_attr_value).replace(chr(39), '&apos;')}'"
        for name in names)
    if depth < 3 and draw(st.booleans()):
        children = draw(st.lists(documents(depth + 1), min_size=1, max_size=3))
        body = "".join(draw(_gap) + child for child in children) + draw(_gap)
    else:
        body = draw(_text)
    if not body and draw(st.booleans()):
        return f"<{tag}{attrs}/>"
    return f"<{tag}{attrs}>{body}</{tag}>"


class TestAgainstElementTree:
    @settings(deadline=None)
    @given(documents())
    def test_generated_documents(self, source):
        assert_same_tree(parse(source), ET.fromstring(source))

    @settings(deadline=None)
    @given(documents())
    def test_generated_documents_with_prolog(self, source):
        source = f'<?xml version="1.0"?>\n<!-- head -->{source}\n<!-- tail -->\n'
        assert_same_tree(parse(source), ET.fromstring(source))


# -- documents from a real run ------------------------------------------------

@pytest.fixture(scope="module")
def quickstart_documents() -> list[str]:
    """Every document the XML parser sees during ``examples/quickstart.py``."""
    import repro.core.secure_login
    import repro.core.secure_messaging
    import repro.core.secure_rpc
    import repro.jxta.messages

    seen: list[str] = []

    def recording_parse(text: str) -> Element:
        seen.append(text)
        return parse(text)

    with pytest.MonkeyPatch.context() as patch:
        for module in (repro.jxta.messages, repro.core.secure_login,
                       repro.core.secure_messaging, repro.core.secure_rpc):
            patch.setattr(module, "parse", recording_parse)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(QUICKSTART), run_name="__main__")
    return seen


class TestQuickstartDocuments:
    def test_every_document_matches_the_oracle(self, quickstart_documents):
        assert len(quickstart_documents) >= 10
        for source in quickstart_documents:
            assert_same_tree(parse(source), ET.fromstring(source))

    def test_truncated_login_frame_is_a_parse_error(self, quickstart_documents):
        frame = next(doc for doc in quickstart_documents
                     if 'type="secure_login_ok"' in doc)
        for offset in range(len(frame)):
            with pytest.raises(XMLParseError):
                parse(frame[:offset])
