"""Event bus and the primitive catalogue."""

import tracemalloc

import pytest

from repro.errors import OverlayError
from repro.overlay.events import EVENT_CATALOGUE, HISTORY_MAX, EventBus
from repro.overlay.primitives import CATALOGUE, catalogue_by_category, secure_variants


class TestEventBus:
    def test_subscribe_emit(self):
        bus = EventBus()
        got = []
        bus.subscribe("message_received", lambda **kw: got.append(kw))
        bus.emit("message_received", text="hi")
        assert got == [{"text": "hi"}]

    def test_unknown_event_rejected(self):
        bus = EventBus()
        with pytest.raises(OverlayError):
            bus.emit("not_an_event")
        with pytest.raises(OverlayError):
            bus.subscribe("not_an_event", lambda: None)

    def test_non_strict_mode(self):
        bus = EventBus(strict=False)
        bus.emit("anything_goes", x=1)
        assert bus.events_named("anything_goes") == [{"x": 1}]

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        fn = lambda **kw: got.append(1)
        bus.subscribe("connected", fn)
        bus.unsubscribe("connected", fn)
        bus.emit("connected")
        assert got == []

    def test_history(self):
        bus = EventBus()
        bus.emit("connected", broker="b")
        bus.emit("logged_in", username="u", groups=[])
        assert bus.events_named("connected") == [{"broker": "b"}]
        bus.clear_history()
        assert list(bus.history) == []

    def test_history_is_bounded_newest_last(self):
        bus = EventBus()
        for i in range(HISTORY_MAX + 1):
            bus.emit("message_received", seq=i)
        assert len(bus.history) == HISTORY_MAX
        assert bus.history[0] == ("message_received", {"seq": 1})
        assert bus.history[-1] == ("message_received", {"seq": HISTORY_MAX})
        assert len(bus.events_named("message_received")) == HISTORY_MAX

    def test_history_keeps_text_length_not_text(self):
        bus = EventBus()
        got = []
        bus.subscribe("secure_message_received", lambda **kw: got.append(kw))
        bus.emit("secure_message_received", from_user="alice", text="hello")
        assert got == [{"from_user": "alice", "text": "hello"}]
        assert bus.events_named("secure_message_received") == [
            {"from_user": "alice", "text_len": 5}]

    def test_history_of_large_messages_stays_small(self):
        """A full history of 64 KiB messages holds metadata, not bodies."""
        bus = EventBus()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(HISTORY_MAX):
                bus.emit("message_received", from_peer="p", seq=i,
                         text=chr(97 + i % 26) * 65536)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(bus.history) == HISTORY_MAX
        assert held < 1 << 20

    def test_multiple_listeners_all_called(self):
        bus = EventBus()
        got = []
        bus.subscribe("logged_out", lambda **kw: got.append("a"))
        bus.subscribe("logged_out", lambda **kw: got.append("b"))
        bus.emit("logged_out", username="x")
        assert got == ["a", "b"]

    def test_catalogue_covers_core_lifecycle(self):
        for name in ("connected", "logged_in", "message_received",
                     "secure_message_received", "message_rejected",
                     "broker_rejected", "credential_issued"):
            assert name in EVENT_CATALOGUE


class TestPrimitiveCatalogue:
    def test_plain_primitives_registered(self):
        for name in ("connect", "login", "logout", "send_msg_peer",
                     "send_msg_peer_group", "publish_file", "request_file",
                     "create_group", "join_group", "submit_task"):
            assert name in CATALOGUE, name
            assert not CATALOGUE[name].secure

    def test_secure_primitives_registered(self):
        secure = secure_variants()
        for name in ("secure_connect", "secure_login", "secure_msg_peer",
                     "secure_msg_peer_group", "secure_publish_file",
                     "secure_request_file", "secure_submit_task"):
            assert name in secure, name

    def test_categories(self):
        by_cat = catalogue_by_category()
        assert set(by_cat) == {"discovery", "messenger", "group", "file",
                               "executable"}
        assert any(i.name == "secure_msg_peer" for i in by_cat["messenger"])

    def test_docs_captured(self):
        assert CATALOGUE["secure_login"].doc.startswith("secureLogin")

    def test_invocation_counted(self, joined_plain_world):
        world = joined_plain_world
        world.alice.list_groups()
        assert world.alice.metrics.count("primitive.list_groups") == 1
