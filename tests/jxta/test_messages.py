"""JXTA message codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JxtaError
from repro.jxta.messages import Message
from repro.xmllib import Element


class TestBuilding:
    def test_empty_type_rejected(self):
        with pytest.raises(JxtaError):
            Message("")

    def test_element_kinds(self):
        m = Message("t")
        m.add_text("a", "text")
        m.add_bytes("b", b"\x00\xff")
        m.add_xml("c", Element("X", text="y"))
        m.add_json("d", {"k": 1})
        assert m.names() == ["a", "b", "c", "d"]
        assert m.has("a") and not m.has("z")

    def test_add_xml_requires_element(self):
        with pytest.raises(JxtaError):
            Message("t").add_xml("x", "<X/>")  # type: ignore[arg-type]

    def test_type_errors_on_wrong_getter(self):
        m = Message("t").add_text("a", "text")
        with pytest.raises(JxtaError):
            m.get_bytes("a")
        with pytest.raises(JxtaError):
            m.get_xml("a")

    def test_missing_element(self):
        with pytest.raises(JxtaError):
            Message("t").get_text("nope")


class TestWire:
    def test_roundtrip_all_kinds(self):
        m = Message("mixed", ns="custom-ns")
        m.add_text("t", "hello <world> & co")
        m.add_bytes("b", bytes(range(256)))
        m.add_xml("x", Element("Adv", attrib={"a": "1"}, text="body"))
        m.add_json("j", {"list": [1, 2], "s": "x"})
        m2 = Message.from_wire(m.to_wire())
        assert m2.msg_type == "mixed" and m2.ns == "custom-ns"
        assert m2.get_text("t") == "hello <world> & co"
        assert m2.get_bytes("b") == bytes(range(256))
        assert m2.get_xml("x").structurally_equal(Element("Adv", attrib={"a": "1"}, text="body"))
        assert m2.get_json("j") == {"list": [1, 2], "s": "x"}

    @settings(max_examples=30, deadline=None)
    @given(st.text(min_size=0, max_size=200), st.binary(max_size=200))
    def test_roundtrip_property(self, text, blob):
        m = Message("prop")
        m.add_text("t", text)
        m.add_bytes("b", blob)
        m2 = Message.from_wire(m.to_wire())
        assert m2.get_text("t") == text
        assert m2.get_bytes("b") == blob

    def test_element_order_preserved(self):
        m = Message("t")
        for i in range(5):
            m.add_text(f"e{i}", str(i))
        assert Message.from_wire(m.to_wire()).names() == [f"e{i}" for i in range(5)]

    def test_duplicate_names_allowed_and_first_wins_on_get(self):
        m = Message("t")
        m.add_text("dup", "first")
        m.add_text("dup", "second")
        m2 = Message.from_wire(m.to_wire())
        assert m2.get_text("dup") == "first"
        assert m2.names().count("dup") == 2


class TestMalformedWire:
    def test_not_xml(self):
        with pytest.raises(JxtaError):
            Message.from_wire(b"this is not xml")

    def test_not_utf8(self):
        with pytest.raises(JxtaError):
            Message.from_wire(b"\xff\xfe<Message/>")

    def test_wrong_root(self):
        with pytest.raises(JxtaError):
            Message.from_wire(b"<Wrong/>")

    def test_missing_type(self):
        with pytest.raises(JxtaError):
            Message.from_wire(b'<Message ns="x"/>')

    def test_unnamed_element(self):
        with pytest.raises(JxtaError):
            Message.from_wire(b'<Message type="t"><Elem>v</Elem></Message>')

    def test_unknown_encoding(self):
        with pytest.raises(JxtaError):
            Message.from_wire(
                b'<Message type="t"><Elem name="x" enc="rot13">v</Elem></Message>')

    def test_lone_surrogate_reference(self):
        # accepted once, it made canonicalize raise UnicodeEncodeError
        # later, inside signature verification
        with pytest.raises(JxtaError):
            Message.from_wire(
                b'<Message type="t"><Elem name="x">&#xD800;</Elem></Message>')

    def test_bad_json(self):
        m = Message("t").add_text("j", "{not json")
        with pytest.raises(JxtaError):
            m.get_json("j")
