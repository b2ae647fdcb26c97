"""``python -m repro.bench``: run every experiment and print the report.

``--experiment NAME`` runs one named experiment (see
:data:`EXPERIMENTS`) and writes its ``BENCH_<NAME>.json``, exiting
nonzero if the experiment's acceptance checks fail; ``--quick`` shrinks
every experiment for CI smoke runs.

* ``fault`` — E-FAULT: fault-injection sweep + broker-crash recovery,
  ``BENCH_FAULT.json``.
* ``msgfast`` — E-MSGFAST: secure-messaging fast-path sweeps,
  ``BENCH_MSGFAST.json``.
* ``fed`` — E-FED: sharded-federation sweep, ``BENCH_FED.json``.
* ``group`` — E-GROUP: broker-mediated group cast vs the iterated
  fan-out (O(1) sender cost, relay amplification), ``BENCH_GROUP.json``.
* ``hotpath`` — E-HOTPATH: the layer-cost ladder with per-message work
  counts, ``BENCH_HOTPATH.json``.
* ``scale`` — E-SCALE: the scenario-engine population experiment
  (churn storm + Sybil flood + eclipse + frame storm over an 8-broker
  ring), ``BENCH_SCALE.json``.
"""

from __future__ import annotations

import sys

from repro.bench import (
    baseline_comparison,
    fault_report,
    fed_report,
    format_fed,
    format_group,
    format_baselines,
    format_fault_report,
    format_group_scaling,
    format_hotpath,
    format_join_overhead,
    format_msg_overhead,
    format_msgfast,
    format_obs,
    format_policy_ablation,
    format_scale,
    group_report,
    group_scaling,
    hotpath_report,
    join_overhead,
    msg_overhead_curve,
    msgfast_report,
    obs_bench,
    policy_ablation,
    scale_report,
    write_bench_fault,
    write_bench_fed,
    write_bench_group,
    write_bench_hotpath,
    write_bench_msgfast,
    write_bench_obs,
    write_bench_scale,
)


def run_fault(quick: bool) -> int:
    data = fault_report(messages=30 if quick else 100)
    print(format_fault_report(data))
    out = write_bench_fault(data)
    print(f"  wrote {out}")
    return 0


def run_fed(quick: bool) -> int:
    data = fed_report(quick=quick)
    print(format_fed(data))
    out = write_bench_fed(data)
    print(f"  wrote {out}")
    return 0 if data["checks"]["all_passed"] else 1


def run_msgfast(quick: bool) -> int:
    data = msgfast_report(quick=quick)
    print(format_msgfast(data))
    out = write_bench_msgfast(data)
    print(f"  wrote {out}")
    return 0 if data["checks"]["all_passed"] else 1


def run_group(quick: bool) -> int:
    data = group_report(quick=quick)
    print(format_group(data))
    out = write_bench_group(data)
    print(f"  wrote {out}")
    return 0 if data["checks"]["all_passed"] else 1


def run_scale(quick: bool) -> int:
    data = scale_report(quick=quick)
    print(format_scale(data))
    out = write_bench_scale(data)
    print(f"  wrote {out}")
    return 0 if data["checks"]["all_passed"] else 1


def run_hotpath(quick: bool) -> int:
    data = hotpath_report(quick=quick)
    print(format_hotpath(data))
    out = write_bench_hotpath(data)
    print(f"  wrote {out}")
    return 0 if data["checks"]["all_passed"] else 1


#: ``--experiment`` name -> runner.  The README quickstart lists these
#: names; ``tests/bench/test_experiment_registry.py`` keeps the two in
#: sync (same drift-gate idea as the PROTOCOLS.md frame catalogue).
EXPERIMENTS = {
    "fault": run_fault,
    "fed": run_fed,
    "group": run_group,
    "hotpath": run_hotpath,
    "msgfast": run_msgfast,
    "scale": run_scale,
}


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    if "--experiment" in argv:
        at = argv.index("--experiment") + 1
        if at >= len(argv):
            known = ", ".join(sorted(EXPERIMENTS))
            print(f"--experiment needs a name; known: {known}",
                  file=sys.stderr)
            return 2
        which = argv[at]
        runner = EXPERIMENTS.get(which)
        if runner is None:
            known = ", ".join(sorted(EXPERIMENTS))
            print(f"unknown experiment {which!r}; known: {known}",
                  file=sys.stderr)
            return 2
        return runner(quick)
    print(format_join_overhead(join_overhead(repeats=2 if quick else 3)))
    print()
    sizes = (100, 1_000, 10_000, 100_000) if quick else (100, 1_000, 10_000, 100_000, 1_000_000)
    curve = msg_overhead_curve(sizes=sizes, repeats=2 if quick else 3)
    print(format_msg_overhead(curve))
    print()
    from repro.bench.figures import render_figure2

    print(render_figure2(curve))
    print()
    print(format_group_scaling(group_scaling(group_sizes=(2, 4, 8) if quick else (2, 4, 8, 16))))
    print()
    counts = (1, 5, 10) if quick else (1, 2, 5, 10, 50)
    print(format_baselines(baseline_comparison(message_counts=counts), size_bytes=1_000))
    print()
    print(format_policy_ablation(policy_ablation()))
    print()
    obs_data = obs_bench(repeats=3 if quick else 5)
    print(format_obs(obs_data))
    out = write_bench_obs(obs_data)
    print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
