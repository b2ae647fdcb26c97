"""E-HOTPATH harness: the layer ladder, its work-count gate and tables."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import profile


def _per_msg(**overrides: float) -> dict:
    counts = {key: 0.0 for key in profile.WORK_COUNTS}
    counts.update(frames=1.0, bytes=440.0)
    counts.update(overrides)
    return counts


def _tiny_document(resumed_ms: float = 5.0, all_passed: bool = True,
                   **resumed_counts: float) -> dict:
    """A synthetic BENCH_HOTPATH document for gate/table unit tests."""
    return {
        "experiment": "E-HOTPATH",
        "layers": [
            {"layer": "plain", "msgs_per_sec": 1000.0, "ms_per_msg": 1.0,
             "x_vs_plain": 1.0, "messages": 5, "delivered": 5,
             "per_msg": _per_msg()},
            {"layer": "+secure resumed", "msgs_per_sec": 1e3 / resumed_ms,
             "ms_per_msg": resumed_ms, "x_vs_plain": resumed_ms,
             "messages": 5, "delivered": 5,
             "per_msg": _per_msg(**{"bytes": 765.0, "resume_seal": 1.0,
                                    "resume_open": 1.0, **resumed_counts})},
        ],
        "checks": {"all_delivered": all_passed,
                   "resumed_zero_rsa": True,
                   "all_passed": all_passed},
    }


class TestLayerLadder:
    def test_ladder_rows_and_normalization(self):
        rows = profile.layer_ladder(messages=4)
        assert [row["layer"] for row in rows] == [
            "plain", "+wire", "+obs", "+secure (stateless)",
            "+secure resumed"]
        assert rows[0]["x_vs_plain"] == pytest.approx(1.0)
        for row in rows:
            assert row["delivered"] == row["messages"] == 4
        # security dominates the ladder: secure rows cost multiples of plain
        assert rows[3]["x_vs_plain"] > 2.0

    def test_work_counts_per_message(self):
        rows = {row["layer"]: row["per_msg"]
                for row in profile.layer_ladder(messages=4)}
        for per_msg in rows.values():
            assert per_msg["frames"] == 1
        stateless, resumed = rows["+secure (stateless)"], rows["+secure resumed"]
        assert (stateless["rsa_private"], stateless["rsa_public"],
                stateless["rsa_verify"]) == (2, 1, 1)
        assert stateless["envelope_seal"] == stateless["envelope_open"] == 1
        assert resumed["rsa_private"] == resumed["rsa_public"] \
            == resumed["rsa_verify"] == 0
        assert resumed["resume_seal"] == resumed["resume_open"] == 1
        assert resumed["bytes"] > rows["plain"]["bytes"]


class TestRegressionGate:
    def test_equal_runs_pass(self):
        doc = _tiny_document()
        assert profile.check_regression(doc, doc) == []

    def test_extra_rsa_op_fails(self):
        baseline = _tiny_document()
        fresh = _tiny_document(rsa_private=1.0)
        problems = profile.check_regression(fresh, baseline)
        assert any("rsa_private" in p for p in problems)

    def test_drop_within_tolerance_passes(self):
        # wall clock is not gated; bytes may grow within the tolerance
        baseline = _tiny_document(resumed_ms=5.0)
        fresh = _tiny_document(resumed_ms=50.0, bytes=765.0 * 1.15)
        assert profile.check_regression(fresh, baseline) == []
        fresh = _tiny_document(bytes=765.0 * 1.3)
        assert any("bytes" in p
                   for p in profile.check_regression(fresh, baseline))

    def test_missing_layer_fails(self):
        baseline = _tiny_document()
        fresh = _tiny_document()
        fresh["layers"].pop()
        problems = profile.check_regression(fresh, baseline)
        assert any("missing" in p for p in problems)

    def test_failed_checks_fail_the_gate(self):
        doc = _tiny_document(all_passed=False)
        problems = profile.check_regression(doc, doc)
        assert any("failed its own checks" in p for p in problems)

    def test_gate_cli(self, tmp_path):
        fresh = tmp_path / "fresh.json"
        base = tmp_path / "base.json"
        fresh.write_text(json.dumps(_tiny_document(resumed_ms=9.0)))
        base.write_text(json.dumps(_tiny_document()))
        assert profile.gate(str(fresh), str(base)) == 0
        fresh.write_text(json.dumps(_tiny_document(frames=2.0)))
        assert profile.gate(str(fresh), str(base)) == 1
        assert profile.gate(str(tmp_path / "missing.json"), str(base)) == 2


class TestLayerTableDocs:
    def test_render_round_trips_through_markers(self):
        doc = _tiny_document()
        table = profile.render_layer_table(doc)
        page = (f"# perf\n\n{profile.BEGIN_MARK}\n{table}{profile.END_MARK}\n")
        assert profile.embedded_section(page) == table

    def test_check_docs_detects_drift(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_tiny_document()))
        doc = tmp_path / "PERF.md"
        table = profile.render_layer_table(_tiny_document())
        doc.write_text(
            f"# perf\n\n{profile.BEGIN_MARK}\n{table}{profile.END_MARK}\n")
        assert profile.check_docs(str(doc), str(baseline)) == 0
        # drift the baseline -> the embedded table no longer matches
        baseline.write_text(json.dumps(_tiny_document(resumed_ms=3.0)))
        assert profile.check_docs(str(doc), str(baseline)) == 1
        # no marker section at all
        doc.write_text("# perf, no markers\n")
        assert profile.check_docs(str(doc), str(baseline)) == 2

    def test_update_docs_rewrites_section(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_tiny_document(resumed_ms=3.0)))
        doc = tmp_path / "PERF.md"
        doc.write_text(f"intro\n{profile.BEGIN_MARK}\nstale\n"
                       f"{profile.END_MARK}\noutro\n")
        assert profile.update_docs(str(doc), str(baseline)) == 0
        assert profile.check_docs(str(doc), str(baseline)) == 0
        text = doc.read_text()
        assert text.startswith("intro\n") and text.endswith("outro\n")


class TestCommittedArtifacts:
    """The repo's own baseline and docs must satisfy the gates."""

    REPO = Path(__file__).resolve().parents[2]

    def test_committed_baseline_passes_its_checks(self):
        baseline = json.loads(
            (self.REPO / profile.BASELINE_PATH).read_text(encoding="utf-8"))
        assert baseline["checks"]["all_passed"]

    def test_performance_doc_matches_committed_baseline(self):
        assert profile.check_docs(
            str(self.REPO / profile.PERFORMANCE_DOC),
            str(self.REPO / profile.BASELINE_PATH)) == 0
