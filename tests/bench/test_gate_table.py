"""The experiment table's gated rows against the committed baselines.

For every experiment with a baseline: the baseline passes against
itself, and each declared row fires exactly at its bound -- a copy
nudged just past it yields a problem naming the quantity and the cell,
a copy nudged just inside it passes.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import faults
from repro.bench.__main__ import main
from repro.bench.harness import EXPERIMENTS, Gated, regressions
from repro.bench.paths import BASELINE_DIR, baseline_path

REPO = Path(__file__).resolve().parents[2]

GATED = sorted(name for name, experiment in EXPERIMENTS.items()
               if experiment.rows)

ROWS = [pytest.param(name, row,
                     id=f"{name}:{row.section or 'top'}:{row.quantity}")
        for name in GATED for row in EXPERIMENTS[name].rows]


def load_baseline(name: str) -> dict:
    return json.loads((REPO / baseline_path(name)).read_text(encoding="utf-8"))


def nudged(row: Gated, ref: float) -> tuple[float, float]:
    """(just past the bound, just inside it) for a baseline value *ref*."""
    if row.rule == "exact":
        return ref + 1e-6 * max(1.0, abs(ref)), ref
    sign = 1.0 if row.rule == "max" else -1.0
    bound = ref * (1.0 + sign * row.tolerance)
    step = sign * 1e-6 * max(1.0, abs(bound))
    return bound + step, bound - step


def set_value(row: Gated, cell: dict, value: float) -> None:
    if row.measure is None:
        *path, leaf = row.quantity.split(".")
        for part in path:
            cell = cell[part]
        cell[leaf] = value
    else:  # the one computed quantity: a phase's total reject count
        cell["rejects"] = {"wire": {"nudged": value}}
        assert row.value(cell) == value


def test_baselines_exist_exactly_for_gated_experiments():
    committed = {p.name for p in (REPO / BASELINE_DIR).glob("BENCH_*.json")}
    assert committed == {baseline_path(name).name for name in GATED}


@pytest.mark.parametrize("name", GATED)
def test_committed_baseline_passes_against_itself(name):
    baseline = load_baseline(name)
    assert regressions(name, copy.deepcopy(baseline), baseline) == []


@pytest.mark.parametrize("name,row", ROWS)
def test_row_fires_exactly_at_its_bound(name, row):
    baseline = load_baseline(name)
    cells = row.cells(baseline)
    labels = [label for label in cells
              if row.only is None or label == row.only]
    assert labels, "the row gates no cell of the committed baseline"
    for label in labels:
        past, inside = nudged(row, row.value(cells[label]))
        fresh = copy.deepcopy(baseline)
        set_value(row, row.cells(fresh)[label], past)
        problems = regressions(name, fresh, baseline)
        assert problems and all(row.quantity in p and label in p
                                for p in problems), problems
        fresh = copy.deepcopy(baseline)
        set_value(row, row.cells(fresh)[label], inside)
        assert regressions(name, fresh, baseline) == []


@pytest.mark.parametrize("name", ["fault", "fed", "a1", "obs"])
def test_gate_without_baseline_exits_2(name, capsys):
    assert main(["--experiment", name, "--gate"]) == 2
    assert "no committed baseline" in capsys.readouterr().err


def test_gate_needs_an_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["--gate"])
    assert exc.value.code == 2


def test_check_docs_through_the_entry_point(monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["--check-docs"]) == 0


def test_entry_point_imports_cleanly_under_warnings_as_errors():
    """``-m repro.bench`` must not re-run a module the package imported."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.bench",
         "--experiment", "fault", "--gate"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "no committed baseline" in proc.stderr


class TestFaultChecks:
    @staticmethod
    def cells(delivered_off: int = 24, delivered_on: int = 30):
        cells = []
        for loss in faults.LOSS_RATES:
            for retries in (False, True):
                delivered = 30 if loss == 0.0 else (
                    delivered_on if retries else delivered_off)
                cells.append(faults.LossCell(
                    variant="secure", loss=loss, retries=retries, sent=30,
                    delivered=delivered, success_rate=delivered / 30,
                    retries_recorded=0))
        return cells

    CRASH = {"recovered": True, "fresh_sids_issued_for_recovery": 1}

    def test_healthy_run_passes(self):
        assert faults._checks(self.cells(), self.CRASH)["all_passed"]

    def test_retries_need_not_deliver_everything(self):
        checks = faults._checks(self.cells(24, 29), self.CRASH)
        assert checks["all_passed"]

    def test_retries_delivering_fewer_fail(self):
        checks = faults._checks(self.cells(24, 23), self.CRASH)
        assert not checks["retries_never_deliver_fewer"]
        assert not checks["all_passed"]

    def test_lossless_cell_must_deliver_all(self):
        cells = self.cells()
        cells[0].delivered = 29
        assert not faults._checks(cells, self.CRASH)["lossless_delivers_all"]

    def test_crash_must_recover_on_a_fresh_sid(self):
        for crash in ({"recovered": False, "fresh_sids_issued_for_recovery": 1},
                      {"recovered": True, "fresh_sids_issued_for_recovery": 0}):
            checks = faults._checks(self.cells(), crash)
            assert not checks["crash_recovered_on_fresh_sid"]
            assert not checks["all_passed"]
