"""Self-tests of the E-E2E benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import multiprocessing
import re
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from benchmarks.e2e import compare, roles, spec
from benchmarks.e2e.harness import (
    Window, end_to_end, per_layer, rss_mib, run_workload)
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.tracer import Recorder, Target, install

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- end to end --------------------------------------------------------------


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_quick_run_passes_checks_and_cleans_up(name):
    result = run_workload(spec.WORKLOADS[name], seed=3, seconds=0.5, quick=True)
    assert result["correct"], result["info"]["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["info"].get("errors")
    assert set(result["metrics"]) == {m.name for m in spec.gated_metrics()}
    # World.stop() already refuses a listening socket left behind.
    assert multiprocessing.active_children() == []


def test_program_missing_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "chat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- percentiles -------------------------------------------------------------


def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == pytest.approx(89.1)
    assert percentile(range(1, 21), 50) == pytest.approx(10.5)


# -- tracing -----------------------------------------------------------------


def test_self_time_on_nested_spans_across_threads():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = recorder.wrap("outer", outer_body)
    recorder.active = True

    def worker():
        for _ in range(3):
            outer()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    totals = recorder.snapshot()
    assert totals["outer"][0] == totals["inner"][0] == 6
    # An outer span's self time is its duration minus its child's.
    assert totals["outer"][1] == totals["outer"][2] + totals["inner"][1]
    assert totals["inner"][1] == totals["inner"][2]
    assert 0.005 < totals["outer"][2] / 6 / 1e9 < 0.018
    assert 0.018 < totals["inner"][2] / 6 / 1e9 < 0.04
    spans = {s[1]: s for s in recorder.spans}
    for group, _sid, parent, thread, *_ in recorder.spans:
        if group == "inner":
            assert spans[parent][0] == "outer"
            assert spans[parent][3] == thread  # parent on the same thread
        else:
            assert parent == 0


def test_install_rebinds_imported_names_and_reports_missing(monkeypatch):
    probe = types.ModuleType("repro._e2e_probe")

    def work(data):
        return len(data)

    class Box:
        def open(self):
            return "opened"

        alias = open

    probe.work, probe.Box = work, Box
    user = types.ModuleType("repro._e2e_user")
    user.work = work  # as after "from repro._e2e_probe import work"
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    recorder = Recorder()
    missing = install(recorder, (
        Target("probe.work", probe.__name__, "work", nbytes_arg=0),
        Target("probe.box", probe.__name__, "Box.open"),
        Target("gone", probe.__name__, "vanished"),
    ))
    assert missing == [f"gone ({probe.__name__}.vanished)"]
    recorder.active = True
    assert user.work(b"abc") == 3 and probe.work(b"ab") == 2
    assert Box().open() == "opened" and Box().alias() == "opened"
    totals = recorder.snapshot()
    assert totals["probe.work"][0] == 2 and totals["probe.work"][3] == 5
    assert totals["probe.box"][0] == 2


# -- output checks -----------------------------------------------------------


def test_message_text_checks():
    pools = roles.payload_pools(7, (256, 4096))
    text = roles.make_text(42, pools, 4096)
    assert len(text) == 4096
    assert roles.check_text(text, pools) == (42, roles.OK)
    tampered = text[:-1] + ("A" if text[-1] != "A" else "B")
    assert roles.check_text(tampered, pools)[1] == roles.BAD_PAYLOAD
    wrong_id = roles.make_text(43, pools, 4096).replace("0000000043", "0000000042")
    assert roles.check_text(wrong_id, pools)[1] == roles.BAD_PAYLOAD
    assert roles.payload_pools(7, (256,))[256] == pools[256]


def test_completions_flag_duplicates_and_wait_for_every_member():
    done = roles.Completions()
    wait = done.expect(5, needed=2)
    done.notify(5, 0, 100, roles.OK)
    assert not wait.event.is_set()
    done.notify(5, 0, 150, roles.OK)  # the same member twice
    assert wait.event.is_set() is False and wait.bad == 1
    done.notify(5, 1, 200, roles.OK)
    assert wait.event.is_set() and wait.last_ns == 200
    done.notify(9, 0, 1, roles.BAD_PAYLOAD)  # nobody waits for op 9
    assert (done.late, done.wrong) == (1, 1)


# -- drift: BENCHMARK.json vs the runner -------------------------------------


def _synthetic_window() -> Window:
    mark = {"counters": {"net.tcp.frames_sent": 10}, "batch_frames": 0.0,
            "cpu_s": 1.0, "wall_s": 0.0, "maxrss_kib": 1024}
    later = {**mark, "counters": {"net.tcp.frames_sent": 30}, "cpu_s": 2.0}
    labels = ("driver0", "broker0", "sink0")
    results = {"latency_ms": [float(i % 7 + 1) for i in range(200)],
               "failed": 0, "attempted": 200, "window_s": 2.0, "wrong": 0,
               "size_ms": {}, "errors": []}
    window = Window(results, {k: mark for k in labels},
                    {k: later for k in labels})
    return window


def test_benchmark_json_matches_the_runner():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    window = _synthetic_window()
    assert rss_mib(window) == 3.0
    printed = end_to_end(window, [1.0, 2.0, 3.0], [rss_mib(window)])
    assert list(printed) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value for value in printed.values())
    layers = per_layer(window, window.before, {"driver0": {}},
                       {"driver": 1, "broker": 1, "sink": 1})
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_benchmark_json_is_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for path in BENCHMARK["paths"]:
        assert (ROOT / path).is_dir() and not path.startswith("/")
    assert BENCHMARK["command"][0] == "python3"
    assert all(not a.startswith("/") and ".." not in a
               for a in BENCHMARK["command"])
    # No more callers than the benchmark host's 2 cores.
    assert all(len(w.callers) <= 2 for w in spec.WORKLOADS.values())


# -- compare -----------------------------------------------------------------


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8]
    assert compare.verdict(base, [12.0] * 6, "lower", 0.15)[0] == "worse"
    assert compare.verdict(base, [10.3] * 6, "lower", 0.15)[0] == "unchanged"
    assert compare.verdict(base, [8.0] * 6, "lower", 0.15)[0] == "better"
    assert compare.verdict(base, [12.0] * 6, "higher", 0.15)[0] == "better"
    noisy = [5.0, 10.0, 15.0, 7.0, 13.0, 10.0]
    assert compare.verdict(noisy, [9.0] * 6, "lower", 0.15)[0] == "unresolved"
    assert compare.verdict(noisy, [4.0] * 6, "lower", 0.15)[0] == "better"
    # A noisy base does not hide a change worse than every base run.
    assert compare.verdict(noisy, [20.0] * 6, "lower", 0.15)[0] == "worse"
    assert compare.verdict(noisy, [4.0] * 6, "higher", 0.15)[0] == "worse"
    # With fewer than four runs the spread is the full range.
    assert compare.verdict([8.0, 12.0], [24.0, 25.0], "lower", 0.15)[0] == "worse"


def test_compare_rows_and_exit_codes():
    p50 = (spec.Metric("p50_ms", "ms", "lower", 0.15),)

    def runs(values, failed=0):
        return [{"workload": "chat", "trace": False, "attempted": 100,
                 "failed": failed, "metrics": {"p50_ms": v}} for v in values]

    rows = compare.compare(runs([10] * 4), runs([10] * 4), p50)
    assert [r[-1] for r in rows] == ["unchanged", "unchanged"]
    assert compare.exit_code(rows) == 0
    rows = compare.compare(runs([10] * 4), runs([10] * 4, failed=1), p50)
    assert rows[-1][1] == "fail_frac" and rows[-1][-1] == "worse"
    assert compare.exit_code(rows) == 1
    rows = compare.compare(runs([10] * 4), runs([13] * 4), p50)
    assert rows[0][-1] == "worse" and compare.exit_code(rows) == 1
    rows = compare.compare(runs([5, 15, 7, 13]), runs([9, 10, 11, 12]), p50)
    assert rows[0][-1] == "unresolved" and compare.exit_code(rows) == 3
    rows = compare.compare(runs([10] * 4), runs([None] * 4), p50)
    assert rows[0][-1] == "missing" and compare.exit_code(rows) == 3
