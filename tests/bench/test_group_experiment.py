"""E-GROUP harness: cell sanity, the regression gate's failure modes."""

from __future__ import annotations

import copy
import json

from repro.bench.group import _cast_cell
from repro.bench.harness import gate, regressions
from repro.bench.paths import write_bench


def small_doc():
    cell = _cast_cell(4, 1, messages=2)
    data = {
        "experiment": "E-GROUP",
        "size_sweep": [dict(cell.__dict__)],
        "broker_sweep": [dict(cell.__dict__)],
        "checks": {"all_passed": True},
    }
    return data


class TestCastCell:
    def test_small_cell_is_o1(self):
        cell = _cast_cell(4, 1, messages=2)
        assert cell.sender_frames_per_cast == 1.0
        assert cell.epoch_seals_per_cast == 1.0
        assert cell.delivered_per_cast == 3.0
        assert cell.relayed_per_cast == 0.0

    def test_relay_counts_ring_minus_one(self):
        cell = _cast_cell(4, 2, messages=2)
        assert cell.relayed_per_cast == 1.0
        assert cell.delivered_per_cast == 3.0


class TestRegressionGate:
    def test_identical_docs_pass(self):
        doc = small_doc()
        assert regressions("group", doc, copy.deepcopy(doc)) == []

    def test_frame_growth_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["size_sweep"][0]["sender_frames_per_cast"] = 2.0
        problems = regressions("group", fresh, base)
        assert any("sender_frames_per_cast" in p for p in problems)

    def test_delivery_count_is_exact(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["size_sweep"][0]["delivered_per_cast"] -= 1.0
        problems = regressions("group", fresh, base)
        assert any("delivered_per_cast" in p for p in problems)

    def test_missing_cell_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["size_sweep"] = []
        problems = regressions("group", fresh, base)
        assert any("missing" in p for p in problems)

    def test_fresh_self_check_failure_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["checks"] = {"all_passed": False, "o1_rsa_flat": False}
        problems = regressions("group", fresh, base)
        assert any("its own checks" in p for p in problems)

    def test_gate_cli_roundtrip(self, tmp_path):
        doc = small_doc()
        fresh = write_bench("group", doc, tmp_path / "fresh.json")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc), encoding="utf-8")
        assert gate("group", str(fresh), str(baseline)) == 0
        assert gate("group", str(tmp_path / "nope.json"), str(baseline)) == 2
