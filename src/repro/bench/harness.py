"""One bench harness: the declared experiment table and its one gate.

Every named experiment is an :class:`Experiment` entry in
:data:`EXPERIMENTS`: a report function ``(quick) -> dict``, a formatter
and the :class:`Gated` rows of its regression gate.  The fresh document
always lands in ``benchmarks/out/BENCH_<NAME>.json``; an experiment that
declares gated rows keeps its committed reference run at
``benchmarks/baselines/BENCH_<NAME>.json``.  :func:`regressions` compares
a fresh document with that baseline row by row, and :func:`gate` does
the same for two files.  ``python -m repro.bench --experiment NAME
[--quick] [--gate]`` is the command line in front of all of it; with no
``--experiment`` it runs the paper's section 5, :data:`PAPER_EXPERIMENTS`.

Only counts of work and virtual-time figures from the simulator clock
are gated: they are deterministic, so one bound holds on any machine.
Wall-clock figures stay in the documents as information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.bench import (
    evaluation,
    faults,
    federation,
    group,
    msgfast,
    profile,
    scale,
)
from repro.bench.paths import baseline_path
from repro.bench.timing import WORK_COUNTS

RULES = ("max", "min", "exact")
KINDS = ("count", "virtual")


@dataclass(frozen=True)
class Gated:
    """One gated quantity of an experiment document.

    ``section`` names the list holding the cells (``None``: the whole
    document is the one cell) and ``key`` the fields that identify a
    cell across runs.  The value is ``quantity`` read as a dotted path,
    or ``measure(cell)`` when given (``quantity`` then only names it).
    ``rule`` is ``max`` (may not rise past baseline x (1 + tolerance)),
    ``min`` (may not fall below baseline x (1 - tolerance)) or
    ``exact``.  ``kind`` says what is compared: a ``count`` of work or a
    ``virtual``-time figure.  ``only`` limits the row to the one cell
    whose key reads that label.
    """

    section: str | None
    key: tuple[str, ...]
    quantity: str
    rule: str
    tolerance: float = 0.0
    kind: str = "count"
    measure: Callable[[dict], float] | None = None
    only: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES or self.kind not in KINDS:
            raise ValueError(f"bad gated row {self!r}")

    def value(self, cell: dict):
        if self.measure is not None:
            return self.measure(cell)
        for part in self.quantity.split("."):
            cell = cell[part]
        return cell

    def cells(self, doc: dict) -> dict[str, dict] | None:
        """The document's cells by key label; ``None`` if it lacks the section."""
        if self.section is None:
            return {"": doc}
        items = doc.get(self.section)
        if not items:
            return None
        return {"/".join(str(cell[field]) for field in self.key): cell
                for cell in items}

    def violation(self, got, ref) -> str | None:
        """What is wrong with *got* against baseline *ref*, or ``None``."""
        if self.rule == "exact":
            if got != ref:
                return (f"{self.quantity} changed: fresh {_show(got)} "
                        f"!= baseline {_show(ref)}")
        elif self.rule == "max":
            limit = ref * (1.0 + self.tolerance)
            if got > limit:
                return (f"{self.quantity} regressed {_show(got)} > "
                        f"{_show(limit)} (baseline {_show(ref)})")
        else:
            limit = ref * (1.0 - self.tolerance)
            if got < limit:
                return (f"{self.quantity} shrank {_show(got)} < "
                        f"{_show(limit)} (baseline {_show(ref)})")
        return None


def _show(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else f"{value}"


@dataclass(frozen=True)
class Experiment:
    """One entry of the experiment table."""

    report: Callable[[bool], dict]
    format: Callable[[dict], str]
    #: the regression gate; experiments without rows have no baseline
    rows: tuple[Gated, ...] = ()


def _work_rows(section: str | None, key: tuple[str, ...],
               *variants: str) -> tuple[Gated, ...]:
    """Each variant's ``<variant>_work`` counts per operation: exact, so
    a run that falls back to another path (resumed frames, say) fails;
    bytes may grow 20% (sealed frames vary by a few bytes)."""
    return tuple(
        Gated(section, key, f"{variant}_work.{count}",
              "max" if count == "bytes" else "exact",
              0.20 if count == "bytes" else 0.0)
        for variant in variants for count in WORK_COUNTS)


_GROUP_CELL = ("group_size", "brokers")
_GROUP_SWEEPS = ("size_sweep", "broker_sweep")

#: ``--experiment`` name -> experiment.  The README quickstart lists these
#: names; ``tests/bench/test_experiment_registry.py`` keeps the two in
#: sync (same drift-gate idea as the PROTOCOLS.md frame catalogue).
EXPERIMENTS: dict[str, Experiment] = {
    # the paper's section 5 (repro.bench.evaluation), on its stateless path
    # E1: the join overhead (81.76% in the paper) + the link-profile sweep
    "e1": Experiment(evaluation.e1_report, evaluation.format_e1,
                     _work_rows(None, (), "plain", "secure")),
    # E2: Figure 2, secureMsgPeer overhead vs data length
    "e2": Experiment(evaluation.e2_report, evaluation.format_e2,
                     _work_rows("points", ("size_bytes",), "plain", "secure")),
    # A1: crypto micro-costs (wall clock only, so no baseline)
    "a1": Experiment(evaluation.a1_report, evaluation.format_a1),
    # A2: key size and cipher suite on the join and a message
    "a2": Experiment(evaluation.a2_report, evaluation.format_a2,
                     _work_rows("rows", ("label",), "join", "msg")),
    # A3: secureMsgPeerGroup as the group grows
    "a3": Experiment(evaluation.a3_report, evaluation.format_a3,
                     _work_rows("points", ("group_size",), "plain", "secure")),
    # A4: stateless vs TLS vs CBJX over an N-message conversation
    "a4": Experiment(evaluation.a4_report, evaluation.format_a4,
                     _work_rows("points", ("n_messages",),
                                "stateless", "tls", "cbjx")),
    # E-OBS: the registry's per-primitive distributions
    "obs": Experiment(evaluation.obs_report, evaluation.format_obs_report),
    # E-FAULT: frame-loss sweep + broker-crash recovery
    "fault": Experiment(faults.fault_report, faults.format_fault_report),
    # E-FED: sharded-federation sweep
    "fed": Experiment(federation.fed_report, federation.format_fed),
    # E-GROUP: broker-mediated group cast vs the iterated fan-out
    "group": Experiment(group.group_report, group.format_group, (
        *(Gated(sweep, _GROUP_CELL, quantity, "max", 0.20)
          for sweep in _GROUP_SWEEPS
          for quantity in ("sender_frames_per_cast", "sender_bytes_per_cast",
                           "rsa_ops_per_cast")),
        *(Gated(sweep, _GROUP_CELL, quantity, "exact")
          for sweep in _GROUP_SWEEPS
          for quantity in ("delivered_per_cast", "relayed_per_cast")),
    )),
    # E-HOTPATH: the layer-cost ladder; no per-message count may rise,
    # bytes may grow 20% (sealed frames vary by a few bytes per message)
    "hotpath": Experiment(
        profile.hotpath_report, profile.format_hotpath, tuple(
            Gated("layers", ("layer",), f"per_msg.{count}", "max",
                  0.20 if count == "bytes" else 0.0)
            for count in WORK_COUNTS)),
    # E-MSGFAST: secure-messaging fast paths + the link-scheduler wire sweep
    "msgfast": Experiment(msgfast.msgfast_report, msgfast.format_msgfast, (
        Gated("wire_sweep", ("mode", "load"), "bytes_per_msg", "max", 0.20),
        Gated("wire_sweep", ("mode", "load"), "frames_per_unit", "min", 0.20),
        Gated("wire_sweep", ("mode", "load"), "msgs_per_sec", "min", 0.20,
              kind="virtual"),
    )),
    # E-SCALE: the scenario-engine population experiment; the siege's
    # reject taxonomy must keep catching what it used to
    "scale": Experiment(scale.scale_report, scale.format_scale, (
        Gated(None, (), "brokers", "exact"),
        Gated(None, (), "population", "exact"),
        Gated("phases", ("name",), "goodput.frames_sent", "max", 0.20),
        Gated("phases", ("name",), "reject_taxonomy", "min", 0.20,
              measure=scale.reject_total, only="siege"),
    )),
}


#: what ``python -m repro.bench`` runs with no ``--experiment``
PAPER_EXPERIMENTS = ("e1", "e2", "a1", "a2", "a3", "a4", "obs")


def regressions(name: str, fresh: dict, baseline: dict) -> list[str]:
    """Problems (empty = pass) of a fresh *name* document vs its baseline."""
    problems: dict[str, None] = {}  # ordered, duplicate-free
    checks = fresh.get("checks", {})
    if not checks.get("all_passed"):
        failing = [key for key, value in checks.items()
                   if value is False and key != "all_passed"]
        problems[f"fresh run failed its own checks (acceptance checks "
                 f"failing: {', '.join(failing) or 'no checks section'})"] = None
    for row in EXPERIMENTS[name].rows:
        base_cells = row.cells(baseline)
        if base_cells is None:
            problems[f"baseline document has no {row.section} section"] = None
            continue
        fresh_cells = row.cells(fresh) or {}
        for label, base in base_cells.items():
            if row.only is not None and label != row.only:
                continue
            where = f"{row.section}[{label}]: " if row.section else ""
            cell = fresh_cells.get(label)
            if cell is None:
                problems[f"{where}missing from fresh run"] = None
                continue
            try:
                got = row.value(cell)
            except KeyError:
                problems[f"{where}{row.quantity} missing from fresh run"] = None
                continue
            problem = row.violation(got, row.value(base))
            if problem is not None:
                problems[where + problem] = None
    return list(problems)


def gate(name: str, fresh_path: str | Path,
         baseline: str | Path | None = None) -> int:
    """Gate a fresh document file: 0 pass, 1 regression, 2 unusable input."""
    baseline = baseline or baseline_path(name)
    try:
        fresh = json.loads(Path(fresh_path).read_text(encoding="utf-8"))
        base = json.loads(Path(baseline).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"{name} gate: cannot load inputs: {exc}")
        return 2
    problems = regressions(name, fresh, base)
    for problem in problems:
        print(f"{name} gate: FAIL: {problem}")
    if not problems:
        print(f"{name} gate: pass ({len(EXPERIMENTS[name].rows)} gated rows "
              f"vs {baseline})")
    return 1 if problems else 0
