"""The typed hook bus: catalogue enforcement, delivery, containment."""

import pytest

from repro import obs
from repro.obs.events import HOOKS, ProtocolEvents


def test_unknown_hook_rejected_everywhere(fresh_obs):
    bus = obs.get_events()
    with pytest.raises(ValueError):
        bus.on("on_teleport", lambda **kw: None)
    with pytest.raises(ValueError):
        bus.emit("on_teleport")
    with pytest.raises(ValueError):
        bus.listeners("on_teleport")
    with pytest.raises(ValueError):
        bus.off("on_teleport", lambda **kw: None)


def test_emit_delivers_payload_to_subscribers(fresh_obs):
    seen = []
    obs.on("on_replay_blocked", lambda **kw: seen.append(kw))
    obs.emit("on_replay_blocked", peer="peer:alice", kind="nonce")
    assert seen == [{"peer": "peer:alice", "kind": "nonce"}]


def test_emit_counts_even_without_listeners(fresh_obs):
    obs.emit("on_frame_dropped", src="a", dst="b", n_bytes=10)
    obs.emit("on_frame_dropped", src="a", dst="b", n_bytes=10)
    assert fresh_obs.count("events.on_frame_dropped") == 2


def test_off_and_aliases(fresh_obs):
    bus = obs.get_events()
    seen = []
    listener = bus.subscribe("on_login", lambda **kw: seen.append(kw))
    assert bus.listeners("on_login") == [listener]
    bus.unsubscribe("on_login", listener)
    assert bus.listeners("on_login") == []
    bus.emit("on_login", peer="p", username="u", groups=[], secure=True)
    assert seen == []


def test_on_returns_listener_for_decorator_use(fresh_obs):
    @lambda fn: obs.on("on_logout", fn)
    def handler(**kw):
        pass

    assert handler in obs.get_events().listeners("on_logout")


def test_listener_crash_is_contained_and_counted(fresh_obs):
    order = []

    def bad(**kw):
        order.append("bad")
        raise RuntimeError("subscriber bug")

    def good(**kw):
        order.append("good")

    obs.on("on_msg_rejected", bad)
    obs.on("on_msg_rejected", good)
    obs.emit("on_msg_rejected", peer="p", reason="bad signature")  # no raise
    assert order == ["bad", "good"]
    assert fresh_obs.count("events.listener_errors") == 1
    assert fresh_obs.count("events.on_msg_rejected") == 1


def test_clear_unsubscribes_all(fresh_obs):
    bus = obs.get_events()
    bus.on("on_connect", lambda **kw: None)
    bus.clear()
    assert bus.listeners("on_connect") == []


def test_catalogue_documents_payload_for_every_hook():
    assert HOOKS  # non-empty
    for hook, payload in HOOKS.items():
        assert hook.startswith("on_")
        assert payload.strip()


def test_own_registry_overrides_default(fresh_obs):
    private = obs.Registry()
    bus = ProtocolEvents(registry=private)
    bus.emit("on_logout", peer="p", username="u")
    assert private.count("events.on_logout") == 1
    assert fresh_obs.count("events.on_logout") == 0
