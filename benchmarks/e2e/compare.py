"""Compare two sets of E-E2E runs against the bounds in BENCHMARK.json.

::

    python -m benchmarks.e2e.compare BASE.json NEW.json
    python -m benchmarks.e2e.compare --calibrate 10 --out benchmarks/out/base.json

Each input is a ``--out`` document of ``run.py`` (or of ``--calibrate``)
and may hold several runs per workload.  One row per workload and
end-to-end metric gets a verdict:

* ``worse`` — the new median is worse than the base median by more
  than the metric's bound;
* ``better`` — the new median is better by more than the base runs'
  own spread, and the new run wins at least 9 in 10 pairs;
* ``unresolved`` — the base runs spread wider than the bound, so
  neither claim can be made, unless every new run is better than every
  base run (``better``) or every new run is worse than every base run
  (``worse``);
* ``unchanged`` — otherwise.

The spread is the distance between the quartiles over the median (the
full range over the median with fewer than four runs).  Exit codes: 1
when any row is ``worse`` or the failed-operation share rose, else 3
when any row is ``unresolved`` or ``missing`` (no verdict is not a
pass), 2 when the inputs cannot be read, 0 otherwise.

``--calibrate N`` runs N invocations per workload with seeds 1..N and
prints each metric's spread next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import spec
from benchmarks.e2e.stats import iqr_spread, range_spread

ROOT = Path(__file__).resolve().parents[2]

#: how much the failed-operation share may rise (absolute)
FAIL_FRAC_SLACK = 0.001


def load_runs(paths) -> list[dict]:
    runs = []
    for path in paths:
        runs += [r for r in json.loads(Path(path).read_text())["runs"]
                 if not r["trace"]]
    return runs


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric] for r in runs
            if r["workload"] == workload and r["metrics"].get(metric) is not None]


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    return iqr_spread(values) if len(values) >= 4 else range_spread(values)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, signed change of the median; > 0 means worse)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = sign * (new_median - base_median) / base_median
    base_spread = spread(base)
    if base_spread is not None and base_spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", change
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    needed = base_spread if base_spread is not None else bound
    if -change > needed and wins >= 0.9 * len(pairs):
        return "better", change
    return "unchanged", change


def compare(base_runs: list[dict], new_runs: list[dict],
            metrics=None) -> list[tuple]:
    """Rows of (workload, metric, base, new, change, verdict)."""
    metrics = metrics or spec.gated_metrics()
    rows = []
    workloads = sorted({r["workload"] for r in base_runs}
                       & {r["workload"] for r in new_runs})
    for workload in workloads:
        for metric in metrics:
            base = _values(base_runs, workload, metric.name)
            new = _values(new_runs, workload, metric.name)
            if not base or not new:
                rows.append((workload, metric.name, None, None, None, "missing"))
                continue
            result, change = verdict(base, new, metric.better, metric.bound)
            rows.append((workload, metric.name, statistics.median(base),
                         statistics.median(new), change, result))
        fails = [[r["failed"] / max(1, r["attempted"]) for r in runs
                  if r["workload"] == workload] for runs in (base_runs, new_runs)]
        base_fail, new_fail = (statistics.median(f) for f in fails)
        rose = new_fail > base_fail + FAIL_FRAC_SLACK
        rows.append((workload, "fail_frac", base_fail, new_fail,
                     new_fail - base_fail, "worse" if rose else "unchanged"))
    return rows


def exit_code(rows: list[tuple]) -> int:
    """1 if any row is worse, else 3 if any has no verdict, else 0."""
    verdicts = {row[-1] for row in rows}
    if "worse" in verdicts:
        return 1
    if verdicts & {"unresolved", "missing"}:
        return 3
    return 0


def format_rows(rows) -> str:
    lines = [f"{'workload':<12} {'metric':<14} {'base':>12} {'new':>12} "
             f"{'change':>8}  verdict"]
    for workload, name, base, new, change, result in rows:
        if base is None:
            lines.append(f"{workload:<12} {name:<14} {'-':>12} {'-':>12} "
                         f"{'-':>8}  {result}")
            continue
        lines.append(f"{workload:<12} {name:<14} {base:>12.5g} {new:>12.5g} "
                     f"{change:>+8.1%}  {result}")
    return "\n".join(lines)


def calibrate(n: int, workloads: list[str] | None, seconds: float,
              out: Path) -> list[dict]:
    """Run ``n`` invocations per workload (seeds 1..n); returns the runs."""
    names = workloads or list(spec.WORKLOADS)
    parts = out.parent / (out.stem + ".parts")
    parts.mkdir(parents=True, exist_ok=True)
    runs = []
    for name in names:
        for seed in range(1, n + 1):
            part = parts / f"{name}-{seed}.json"
            cmd = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--out", str(part)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=False)
            if done.returncode not in (0, 1):
                raise SystemExit(f"calibration run {name} seed {seed} failed "
                                 f"with exit code {done.returncode}")
            if done.returncode == 1:
                print(f"  {name} seed {seed}: WRONG OUTPUT (see its report)")
            runs += json.loads(part.read_text())["runs"]
            print(f"  {name} seed {seed}: {done.stdout.strip().splitlines()[-1]}",
                  flush=True)
    out.write_text(json.dumps({"benchmark": "e2e", "runs": runs}, indent=1))
    return runs


def format_spreads(runs: list[dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<14} {'median':>10} {'iqr/med':>8} "
             f"{'range/med':>9} {'bound':>6}  within bound/3"]
    for workload in sorted({r["workload"] for r in runs}):
        for metric in spec.gated_metrics():
            values = _values(runs, workload, metric.name)
            if len(values) < 2:
                continue
            iqr = iqr_spread(values)
            lines.append(
                f"{workload:<12} {metric.name:<14} "
                f"{statistics.median(values):>10.4g} "
                f"{iqr:>8.1%} {range_spread(values):>9.1%} "
                f"{metric.bound:>6.0%}  {iqr <= metric.bound / 3}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("inputs", nargs="*", metavar="JSON",
                        help="BASE.json NEW.json")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run N invocations per workload and print spreads")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default="benchmarks/out/e2e-calibration.json")
    args = parser.parse_args(argv)
    if args.calibrate:
        runs = calibrate(args.calibrate, args.workload,
                         args.seconds or spec.run_seconds(), ROOT / args.out)
        print(format_spreads(runs))
        return 0
    if len(args.inputs) != 2:
        parser.error("give BASE.json and NEW.json (or --calibrate N)")
    try:
        base, new = load_runs(args.inputs[:1]), load_runs(args.inputs[1:])
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    rows = compare(base, new)
    print(format_rows(rows))
    return exit_code(rows)


if __name__ == "__main__":
    raise SystemExit(main())
