"""E-SCALE harness: quick run sanity, the regression gate's failure modes."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.harness import gate, regressions
from repro.bench.paths import write_bench
from repro.bench.scale import format_scale, scale_report

PHASE_NAMES = ["ramp", "flash-crowd", "brownout", "siege", "recovery"]


@pytest.fixture(scope="module")
def quick_doc():
    return scale_report(quick=True)


class TestQuickRun:
    def test_all_acceptance_checks_pass(self, quick_doc):
        failing = [k for k, v in quick_doc["checks"].items() if not v]
        assert failing == []

    def test_canonical_phase_mix(self, quick_doc):
        assert [p["name"] for p in quick_doc["phases"]] == PHASE_NAMES

    def test_population_fully_admitted(self, quick_doc):
        assert quick_doc["population"] == 2_000
        # the whole population plus the two probe peers stays connected
        assert quick_doc["active_sessions"] == 2_002

    def test_siege_taxonomy_has_all_three_layers(self, quick_doc):
        siege = next(p for p in quick_doc["phases"] if p["name"] == "siege")
        assert sum(siege["rejects"]["secure_login"].values()) > 0
        assert sum(siege["rejects"]["federation"].values()) > 0
        assert sum(siege["rejects"]["wire"].values()) > 0

    def test_format_renders_every_phase(self, quick_doc):
        text = format_scale(quick_doc)
        for name in PHASE_NAMES:
            assert name in text
        assert "checks: pass" in text

    def test_document_is_json_serialisable(self, quick_doc, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(quick_doc), encoding="utf-8")
        assert json.loads(path.read_text(encoding="utf-8")) == quick_doc


def small_doc():
    def phase(name, frames=100, rejects=None):
        return {
            "name": name,
            "goodput": {"probe_ratio": 1.0, "probe_attempts": 10,
                        "frames_sent": frames},
            "population": {"joins": 0, "leaves": 0},
            "rejects": rejects or {"wire": {}, "federation": {},
                                   "login": {}, "secure_login": {},
                                   "faults": {}},
            "convergence_s": None,
            "adversaries": {},
        }

    return {
        "experiment": "E-SCALE",
        "brokers": 8,
        "population": 2_000,
        "phases": [
            phase("ramp", frames=1_000),
            phase("siege", frames=500,
                  rejects={"wire": {"wire.reject.x.bad": 40},
                           "federation": {"fed.reject.unsigned": 10},
                           "login": {}, "secure_login": {}, "faults": {}}),
        ],
        "checks": {"all_passed": True},
    }


class TestRegressionGate:
    def test_identical_docs_pass(self):
        doc = small_doc()
        assert regressions("scale", doc, copy.deepcopy(doc)) == []

    def test_fresh_self_check_failure_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["checks"] = {"all_passed": False, "sybil_none_accepted": False}
        problems = regressions("scale", fresh, base)
        assert any("acceptance checks" in p for p in problems)
        assert any("sybil_none_accepted" in p for p in problems)

    def test_frame_growth_past_tolerance_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"][0]["goodput"]["frames_sent"] = 1_300
        problems = regressions("scale", fresh, base)
        assert any("frames_sent regressed" in p for p in problems)

    def test_frame_growth_within_tolerance_passes(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"][0]["goodput"]["frames_sent"] = 1_100
        assert regressions("scale", fresh, base) == []

    def test_siege_reject_shrink_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"][1]["rejects"]["wire"] = {"wire.reject.x.bad": 5}
        problems = regressions("scale", fresh, base)
        assert any("taxonomy shrank" in p for p in problems)

    def test_missing_phase_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["phases"] = fresh["phases"][:1]
        problems = regressions("scale", fresh, base)
        assert any("missing from fresh run" in p for p in problems)

    def test_shape_change_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["brokers"] = 4
        fresh["population"] = 1_000
        problems = regressions("scale", fresh, base)
        assert any("brokers changed" in p for p in problems)
        assert any("population changed" in p for p in problems)

    def test_gate_cli_roundtrip(self, tmp_path):
        doc = small_doc()
        fresh = write_bench("scale", doc, tmp_path / "fresh.json")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc), encoding="utf-8")
        assert gate("scale", str(fresh), str(baseline)) == 0
        assert gate("scale", str(tmp_path / "nope.json"), str(baseline)) == 2


class TestCommittedBaseline:
    def test_quick_run_passes_the_committed_gate(self, quick_doc, tmp_path):
        baseline = json.loads(
            Path("benchmarks/baselines/BENCH_SCALE.json").read_text(
                encoding="utf-8"))
        assert regressions("scale", quick_doc, baseline) == []
