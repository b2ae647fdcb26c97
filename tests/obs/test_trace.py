"""Span nesting, error capture and export."""

import json

import pytest

from repro import obs
from repro.obs.trace import Tracer


def test_nested_spans_build_one_tree(fresh_obs):
    tracer = obs.get_tracer()
    with obs.span("secureLogin", peer="peer:alice"):
        with obs.span("secure_login.sign"):
            pass
        with obs.span("secure_login.envelope"):
            pass
    assert len(tracer.finished) == 1
    root = tracer.finished[0]
    assert root.name == "secureLogin"
    assert root.attrs == {"peer": "peer:alice"}
    assert [c.name for c in root.children] == [
        "secure_login.sign", "secure_login.envelope"]
    assert root.duration_ms >= 0.0
    assert all(c.end_ms is not None for c in root.children)


def test_span_records_duration_histograms(fresh_obs):
    with obs.span("secureConnection"):
        with obs.span("secure_connect.sign"):
            pass
    assert fresh_obs.histogram("span.secureConnection.ms").count == 1
    assert fresh_obs.histogram("span.secure_connect.sign.ms").count == 1


def test_error_is_captured_and_span_still_finishes(fresh_obs):
    tracer = obs.get_tracer()
    with pytest.raises(RuntimeError):
        with obs.span("secureLogin"):
            raise RuntimeError("boom")
    assert len(tracer.finished) == 1
    root = tracer.finished[0]
    assert root.error == "RuntimeError: boom"
    assert root.to_dict()["error"] == "RuntimeError: boom"
    assert tracer.current is None  # stack fully unwound


def test_inner_exception_unwinds_outer_stack(fresh_obs):
    tracer = obs.get_tracer()
    with pytest.raises(ValueError):
        with obs.span("outer"):
            with obs.span("inner"):
                raise ValueError("bad")
    # both spans closed, error attributed to each context it crossed
    assert tracer.current is None
    assert len(tracer.finished) == 1
    assert tracer.finished[0].children[0].error == "ValueError: bad"


def test_max_traces_evicts_oldest(fresh_obs):
    tracer = obs.set_tracer(Tracer(registry=fresh_obs, max_traces=3))
    for i in range(5):
        with tracer.span(f"op{i}"):
            pass
    assert [s.name for s in tracer.finished] == ["op2", "op3", "op4"]


def test_current_tracks_innermost_open_span(fresh_obs):
    tracer = obs.get_tracer()
    assert tracer.current is None
    with tracer.span("a"):
        assert tracer.current.name == "a"
        with tracer.span("b"):
            assert tracer.current.name == "b"
        assert tracer.current.name == "a"
    assert tracer.current is None


def test_export_roundtrip(fresh_obs, tmp_path):
    tracer = obs.get_tracer()
    with obs.span("secureMsgPeer", to_peer="peer:bob"):
        with obs.span("secure_msg.seal"):
            pass
    out = tmp_path / "traces.json"
    tracer.export(str(out))
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data == tracer.to_dicts()
    assert data[0]["name"] == "secureMsgPeer"
    assert data[0]["attrs"] == {"to_peer": "peer:bob"}
    assert data[0]["children"][0]["name"] == "secure_msg.seal"


def test_clear_drops_everything(fresh_obs):
    tracer = obs.get_tracer()
    with tracer.span("x"):
        pass
    tracer.clear()
    assert tracer.finished == [] and tracer.current is None
