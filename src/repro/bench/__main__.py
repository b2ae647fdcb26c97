"""``python -m repro.bench``: the one command line of the bench harness.

``--experiment NAME`` runs one entry of :data:`EXPERIMENTS`, writes
``benchmarks/out/BENCH_<NAME>.json`` and exits 1 if the document's own
acceptance checks fail.  ``--gate`` also compares the document with the
committed ``benchmarks/baselines/BENCH_<NAME>.json`` on the experiment's
declared rows (:mod:`repro.bench.harness`); exit 2 means there is no
baseline to compare with.  ``--quick`` shrinks every run for CI smoke
runs.  With no option it runs the paper's section 5 entries (E1, E2
and Figure 2, the A1-A4 ablations, E-OBS) one after another and exits
with the worst of their codes.

``--check-docs`` / ``--update-docs`` verify or regenerate the layer-cost
table in ``docs/PERFORMANCE.md`` from the committed E-HOTPATH baseline;
``--cprofile [N]`` profiles N steady-state resumed sends.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import profile, write_bench
from repro.bench.harness import EXPERIMENTS, PAPER_EXPERIMENTS, gate


def run_experiment(name: str, quick: bool, gated: bool) -> int:
    """Run one table entry, write its document and gate it."""
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {name!r}; known: {known}", file=sys.stderr)
        return 2
    if gated and not experiment.rows:
        gated_names = ", ".join(sorted(n for n, e in EXPERIMENTS.items()
                                       if e.rows))
        print(f"experiment {name!r} has no committed baseline, so --gate has "
              f"nothing to compare; gated experiments: {gated_names}",
              file=sys.stderr)
        return 2
    data = experiment.report(quick)
    print(experiment.format(data))
    out = write_bench(name, data)
    print(f"  wrote {out}")
    if gated:
        return gate(name, out)
    return 0 if data["checks"]["all_passed"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="The paper's section 5 evaluation and the named "
                    "bench experiments.")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--experiment", metavar="NAME",
                        help="run one experiment: "
                             + ", ".join(sorted(EXPERIMENTS)))
    action.add_argument("--check-docs", nargs="?", const=profile.PERFORMANCE_DOC,
                        metavar="DOC",
                        help="verify the generated layer table in DOC "
                             "against the committed hotpath baseline")
    action.add_argument("--update-docs", nargs="?", const=profile.PERFORMANCE_DOC,
                        metavar="DOC",
                        help="rewrite the generated layer table in DOC from "
                             "the committed hotpath baseline")
    action.add_argument("--cprofile", nargs="?", const=300, type=int,
                        metavar="N",
                        help="profile N steady-state resumed sends")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every run for CI smoke runs")
    parser.add_argument("--gate", action="store_true",
                        help="with --experiment: also compare against "
                             "benchmarks/baselines/BENCH_<NAME>.json")
    args = parser.parse_args(argv)
    if args.gate and args.experiment is None:
        parser.error("--gate needs --experiment")
    if args.experiment is not None:
        return run_experiment(args.experiment, args.quick, args.gate)
    if args.check_docs:
        return profile.check_docs(args.check_docs)
    if args.update_docs:
        return profile.update_docs(args.update_docs)
    if args.cprofile:
        return profile.run_cprofile(args.cprofile)
    codes = []
    for name in PAPER_EXPERIMENTS:
        codes.append(run_experiment(name, args.quick, gated=False))
        print()
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
