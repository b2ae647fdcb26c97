"""The paper's section 5 as experiment-table documents.

E1, E2 (Figure 2), the A1-A4 ablations and E-OBS: each ``*_report``
calls one measurement function of :mod:`repro.bench.experiments`,
stores its result as a document and adds ``checks``, the paper's
qualitative claims.  The ``*_work`` fields of the results are the
per-operation work counts that :mod:`repro.bench.harness` gates.
``quick`` lowers repeats only: every run has the same cells, so a quick
run gates against the committed full run.
"""

from __future__ import annotations

from dataclasses import asdict, fields

from repro.bench.experiments import (
    DEFAULT_SIZES,
    OBS_PRIMITIVES,
    BaselineComparisonPoint,
    GroupScalePoint,
    JoinOverheadResult,
    MsgOverheadCurve,
    MsgOverheadPoint,
    PolicyAblationRow,
    baseline_comparison,
    crypto_costs,
    group_scaling,
    join_overhead,
    msg_overhead_curve,
    obs_bench,
    policy_ablation,
)
from repro.bench.figures import render_figure2
from repro.bench.report import (
    format_baselines,
    format_checks,
    format_group_scaling,
    format_join_overhead,
    format_msg_overhead,
    format_obs,
    format_policy_ablation,
    triple,
)
from repro.sim.latency import PROFILES

#: link profiles of E1's sweep; the first is the gated §5 row
E1_LINKS = ("lan2009", "loopback", "campus", "wan-adsl")
A3_GROUP_SIZES = (2, 4, 8, 16)
A4_MESSAGE_COUNTS = (1, 2, 5, 10, 20)
A4_SIZE_BYTES = 1_000


def _load(cls, data: dict):
    """Rebuild a result dataclass from its document fields."""
    return cls(**{f.name: data[f.name] for f in fields(cls)})


def _checked(checks: dict) -> dict:
    checks["all_passed"] = all(
        value for value in checks.values() if isinstance(value, bool))
    return checks


def _document(name: str, quick: bool, checks, **content) -> dict:
    doc = {"experiment": name.upper(), "quick": quick, **content}
    doc["checks"] = checks(doc)
    return doc


def _text(name: str, doc: dict, body: list[str], cells: list[dict],
          key: str | None = None) -> str:
    """*body*, then the work of one operation per cell, then the checks."""
    lines = [*body, "", f"  {'work per operation':<28}  {'frames':>6}  "
             f"{'bytes':>10}  {'rsa p/u/v':>11}  {'env s/o':>7}  "
             f"{'res s/o':>7}"]
    for cell in cells:
        for field, n in cell.items():
            if field.endswith("_work"):
                label = field[:-len("_work")]
                if key is not None:
                    label += f" {cell[key]}"
                lines.append(
                    f"  {label:<28}  {n['frames']:>6g}  {n['bytes']:>10.7g}  "
                    f"{triple(n, 'rsa_private', 'rsa_public', 'rsa_verify'):>11}"
                    f"  {triple(n, 'envelope_seal', 'envelope_open'):>7}  "
                    f"{triple(n, 'resume_seal', 'resume_open'):>7}")
    return "\n".join([*lines, "", *format_checks(name, doc["checks"])])


# -- E1: the join overhead -----------------------------------------------------


def e1_checks(doc: dict) -> dict:
    # the secure join costs more, and less than 100x the plain join
    return _checked({"overhead_in_range": 0 < doc["overhead_pct"] < 10_000})


def e1_report(quick: bool = False) -> dict:
    runs = [join_overhead(link=PROFILES[name], link_name=name,
                          repeats=2 if quick else 3) for name in E1_LINKS]
    return _document("e1", quick, e1_checks, **asdict(runs[0]), link_sweep=[
        {"link": run.link_name, "plain_s": run.plain_s,
         "secure_s": run.secure_s, "overhead_pct": run.overhead_pct}
        for run in runs])


def format_e1(doc: dict) -> str:
    body = [format_join_overhead(_load(JoinOverheadResult, doc)),
            "  link-profile sweep (plain / secure ms, overhead %):"]
    body += [f"  {row['link']:<10}  {row['plain_s'] * 1e3:>9.3f}  "
             f"{row['secure_s'] * 1e3:>9.3f}  {row['overhead_pct']:>8.1f}"
             for row in doc["link_sweep"]]
    return _text("E1", doc, body, [doc])


# -- E2: Figure 2 -------------------------------------------------------------


def _curve(doc: dict) -> MsgOverheadCurve:
    return MsgOverheadCurve(
        points=[_load(MsgOverheadPoint, p) for p in doc["points"]],
        link_name=doc["link_name"], cpu_scale=doc["cpu_scale"],
        rsa_bits=doc["rsa_bits"])


def e2_checks(doc: dict) -> dict:
    curve = _curve(doc)
    return _checked({
        # Figure 2: overhead falls with size (10% slack per step)
        "overhead_falls_with_size": curve.monotone_decreasing_tail(),
        "first_over_twice_last": (curve.points[0].overhead_pct
                                  > curve.points[-1].overhead_pct * 2),
    })


def e2_report(quick: bool = False) -> dict:
    curve = msg_overhead_curve(sizes=DEFAULT_SIZES, repeats=2 if quick else 3)
    return _document("e2", quick, e2_checks, **asdict(curve))


def format_e2(doc: dict) -> str:
    curve = _curve(doc)
    return _text("E2", doc, [format_msg_overhead(curve), "",
                             render_figure2(curve)],
                 doc["points"], "size_bytes")


# -- A1: crypto micro-costs ---------------------------------------------------


def a1_checks(doc: dict) -> dict:
    ratio = doc["us_per_op"]["rsa1024_verify"] / doc["us_per_op"]["cbid_match"]
    return _checked({
        # DESIGN.md §5, decision 3: the CBID check is ~free vs a verify
        "verify_over_cbid_match": ratio,
        "cbid_match_le_tenth_of_verify": ratio >= 10,
    })


def a1_report(quick: bool = False) -> dict:
    return _document("a1", quick, a1_checks,
                     us_per_op=crypto_costs(rounds=3 if quick else 5))


def format_a1(doc: dict) -> str:
    lines = ["A1: crypto micro-costs (1 kB inputs, best-of-k wall clock)"]
    lines += [f"  {name:<22}  {us:>10.1f} us"
              for name, us in doc["us_per_op"].items()]
    return "\n".join([*lines, "", *format_checks("A1", doc["checks"])])


# -- A2: key size and cipher suite --------------------------------------------


def a2_checks(doc: dict) -> dict:
    join_s = {row["label"]: row["join_secure_s"] for row in doc["rows"]}
    # bigger keys cost more on the join (more RSA work)
    return _checked({"rsa2048_join_costs_more": (
        join_s["rsa2048+chacha(oaep)"] > join_s["rsa1024+chacha(oaep)"])})


def a2_report(quick: bool = False) -> dict:
    return _document("a2", quick, a2_checks,
                     rows=[asdict(row) for row in policy_ablation()])


def format_a2(doc: dict) -> str:
    rows = [_load(PolicyAblationRow, row) for row in doc["rows"]]
    return _text("A2", doc, [format_policy_ablation(rows)], doc["rows"],
                 "label")


# -- A3: group scaling --------------------------------------------------------


def a3_checks(doc: dict) -> dict:
    first, last = doc["points"][0], doc["points"][-1]
    # iterated fan-out: the largest group costs more than the smallest
    return _checked({
        "largest_group_costs_more": last["secure_s"] > first["secure_s"]})


def a3_report(quick: bool = False) -> dict:
    return _document("a3", quick, a3_checks, points=[
        asdict(p) for p in group_scaling(group_sizes=A3_GROUP_SIZES)])


def format_a3(doc: dict) -> str:
    points = [_load(GroupScalePoint, p) for p in doc["points"]]
    return _text("A3", doc, [format_group_scaling(points)], doc["points"],
                 "group_size")


# -- A4: stateless vs TLS vs CBJX ---------------------------------------------


def a4_checks(doc: dict) -> dict:
    last = doc["points"][-1]
    # once the channel exists, TLS records are cheaper per message
    return _checked({"tls_cheaper_per_msg_at_largest_n": (
        last["tls_s"] / last["n_messages"]
        < last["stateless_s"] / last["n_messages"])})


def a4_report(quick: bool = False) -> dict:
    points = baseline_comparison(message_counts=A4_MESSAGE_COUNTS,
                                 size_bytes=A4_SIZE_BYTES)
    return _document("a4", quick, a4_checks, size_bytes=A4_SIZE_BYTES,
                     points=[asdict(p) for p in points])


def format_a4(doc: dict) -> str:
    points = [_load(BaselineComparisonPoint, p) for p in doc["points"]]
    return _text("A4", doc, [format_baselines(points, doc["size_bytes"])],
                 doc["points"], "n_messages")


# -- E-OBS --------------------------------------------------------------------


def obs_checks(doc: dict) -> dict:
    prims = doc["primitives"]
    return _checked({
        f"{name}_recorded": prims[name]["calls"] >= 1
        and prims[name]["errors"] == 0
        for name in OBS_PRIMITIVES})


def obs_report(quick: bool = False) -> dict:
    doc = obs_bench(repeats=3 if quick else 5)
    doc["checks"] = obs_checks(doc)
    return doc


def format_obs_report(doc: dict) -> str:
    return "\n".join([format_obs(doc), "",
                      *format_checks("E-OBS", doc["checks"])])
