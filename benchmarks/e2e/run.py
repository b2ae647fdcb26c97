#!/usr/bin/env python3
"""E-E2E benchmark runner.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload chat --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 1 --out benchmarks/out/e2e.json

Without ``--workload`` every workload runs in turn.  The last line of
standard output for each workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.

Exit codes: 0 success, 1 a wrong output or program fault was observed,
2 the benchmark could not run or clean up (missing program, a child
process died, a process or listening socket was left behind).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TRACE_DIR = ROOT / "benchmarks" / "out" / "e2e-trace"


def _setup_path() -> bool:
    """Import the program from this checkout's ``src``; False if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict) -> str:
    """Human-readable block for one workload (everything but the JSON)."""
    from benchmarks.e2e import spec

    metrics = {m.name: m
               for m in (*spec.gated_metrics(), *spec.layer_metrics())}
    info = result["info"]
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"{result['seconds']:g}s, {kind}) =="]
    for name, value in result["metrics"].items():
        metric = metrics[name]
        moves = (f"  -> {metric.moves[0]} @ {metric.moves[1]}"
                 if metric.moves[0] else "")
        lines.append(f"  {name:<36} {_format(value):>14} {metric.unit:<8}{moves}")
    lines.append("  -- context (not gated) --")
    for key, value in info.items():
        if key in ("layers_by_role", "problems", "errors", "program_faults"):
            continue
        lines.append(f"  {key:<36} {_format(value):>14}")
    by_role = info.get("layers_by_role")
    if by_role:
        lines.append("  -- traced self time per op by process role "
                     "(ms; obs.registry: calls) --")
        lines.append(f"  {'group':<30}" + "".join(f"{r:>12}" for r in spec.ROLES))
        for group in sorted(by_role):
            row = by_role[group]
            lines.append(f"  {group:<30}" + "".join(
                f"{row.get(r, 0.0):>12.4f}" for r in spec.ROLES))
    for error in info.get("errors", []):
        lines.append(f"  failed op: {error}")
    for fault in info["program_faults"]:
        lines.append(f"  program fault: {fault}")
    for problem in info["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def result_line(result: dict) -> str:
    from benchmarks.e2e import spec

    units = {m.name: m.unit
             for m in (*spec.gated_metrics(), *spec.layer_metrics())}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="E-E2E: the secure primitives across OS processes over "
                    "127.0.0.1")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time, shared by the builds' windows "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--out", help="also write the results as JSON here")
    return parser.parse_args(argv)


def stop_helpers() -> None:
    """Stop every process this one started and wait for each to end.

    Besides the deployment's children (already stopped on every normal
    path), spawning a child starts multiprocessing's resource tracker,
    which would otherwise outlive this process for a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helpers()


def _main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not _setup_path():
        print(f"e2e: no program found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from benchmarks.e2e import spec
    from benchmarks.e2e.harness import HarnessFault, run_workload

    names = args.workload or list(spec.WORKLOADS)
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        print(f"e2e: unknown workload(s) {unknown}; known: "
              f"{list(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    results, code = [], 0
    for name in names:
        try:
            result = run_workload(spec.WORKLOADS[name], args.seed,
                                  args.seconds or spec.run_seconds(),
                                  trace=bool(args.trace),
                                  trace_dir=str(TRACE_DIR) if args.trace else "")
        except HarnessFault as exc:
            print(f"e2e: {name}: harness fault: {exc}", file=sys.stderr)
            return 2
        results.append(result)
        print(report(result))
        print(result_line(result), flush=True)
        if not result["correct"]:
            code = 1
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"benchmark": "e2e", "runs": results}, fh, indent=1)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
