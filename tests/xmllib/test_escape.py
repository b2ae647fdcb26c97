"""Escaping and entity resolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmllib.escape import escape_attr, escape_text, unescape


class TestEscapeText:
    def test_specials(self):
        assert escape_text("a & b < c > d") == "a &amp; b &lt; c &gt; d"

    def test_quotes_untouched_in_text(self):
        assert escape_text('say "hi"') == 'say "hi"'

    def test_identity_on_plain(self):
        assert escape_text("plain text 123") == "plain text 123"


class TestEscapeAttr:
    def test_quotes_escaped(self):
        assert escape_attr('v="x"') == "v=&quot;x&quot;"

    def test_whitespace_escaped(self):
        assert escape_attr("a\nb\tc\rd") == "a&#10;b&#9;c&#13;d"


class TestUnescape:
    def test_named_entities(self):
        assert unescape("&amp;&lt;&gt;&quot;&apos;") == "&<>\"'"

    def test_numeric_decimal(self):
        assert unescape("&#65;") == "A"

    def test_numeric_hex(self):
        assert unescape("&#x41;&#X42;") == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError):
            unescape("&bogus;")

    def test_unterminated_rejected(self):
        with pytest.raises(ValueError):
            unescape("abc &amp")

    @given(st.text(max_size=200))
    def test_text_roundtrip(self, text):
        assert unescape(escape_text(text)) == text

    @given(st.text(max_size=200))
    def test_attr_roundtrip(self, text):
        assert unescape(escape_attr(text)) == text


class TestStrictCharacterReferences:
    @pytest.mark.parametrize("ref", [
        "&#1_0;",       # int() would take the underscore
        "&#+65;",       # ... and a sign
        "&# 65;",       # ... and surrounding whitespace
        "&#x 41;",
        "&#x;",
        "&#;",
        "&#\u0666\u0665;",  # non-ASCII digits
        "&#xD800;",     # a lone surrogate cannot be encoded as UTF-8
        "&#57343;",     # 0xDFFF
        "&#x110000;",   # past the last code point
        "&#1114112;",
    ])
    def test_rejected(self, ref):
        with pytest.raises(ValueError):
            unescape(f"a{ref}b")

    @pytest.mark.parametrize("ref, char", [
        ("&#0065;", "A"),
        ("&#xd7ff;", "\ud7ff"),
        ("&#xE000;", "\ue000"),
        ("&#x10FFFF;", "\U0010ffff"),
        ("&#1114111;", "\U0010ffff"),
    ])
    def test_accepted(self, ref, char):
        assert unescape(ref) == char


class TestUnescapeFastPath:
    @given(st.text(alphabet=st.characters(blacklist_characters="&"), max_size=200))
    def test_no_ampersand_returns_input_object(self, text):
        assert unescape(text) is text
