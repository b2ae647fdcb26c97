"""Rendering experiment results as the rows/series the paper reports."""

from __future__ import annotations

from repro.bench.experiments import (
    BaselineComparisonPoint,
    GroupScalePoint,
    JoinOverheadResult,
    MsgOverheadCurve,
    PolicyAblationRow,
)


def format_checks(experiment: str, checks: dict) -> list[str]:
    """The acceptance-check block that ends every experiment report.

    Float values are ratios and print as multiples.
    """
    lines = [f"{experiment} acceptance checks:"]
    for key, value in sorted(checks.items()):
        if key != "all_passed":
            shown = f"{value:.2f}x" if isinstance(value, float) else value
            lines.append(f"  {key:<34} : {shown}")
    lines.append(f"  {'all_passed':<34} : {checks['all_passed']}")
    return lines


def triple(counts: dict, *keys: str) -> str:
    """Work counts joined with slashes, e.g. RSA private/public/verify."""
    return "/".join(f"{counts[key]:g}" for key in keys)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f} ms"


def format_join_overhead(result: JoinOverheadResult) -> str:
    """E1 — the §5 sentence, ours vs the paper's 81.76%."""
    lines = [
        "E1: network join overhead (connect+login vs secureConnection+secureLogin)",
        f"  link={result.link_name}  rsa={result.rsa_bits}  cpu_scale={result.cpu_scale}",
        f"  plain join : {_ms(result.plain_s)}",
        f"  secure join: {_ms(result.secure_s)}",
        f"  overhead   : {result.overhead_pct:8.2f} %   (paper: {result.paper_overhead_pct:.2f} %)",
    ]
    return "\n".join(lines)


def format_msg_overhead(curve: MsgOverheadCurve) -> str:
    """E2 — Figure 2 as a text series."""
    lines = [
        "E2 (Figure 2): secureMsgPeer overhead vs data length",
        f"  link={curve.link_name}  rsa={curve.rsa_bits}  cpu_scale={curve.cpu_scale}",
        f"  {'size (B)':>10}  {'plain':>12}  {'secure':>12}  {'overhead %':>11}",
    ]
    for p in curve.points:
        lines.append(
            f"  {p.size_bytes:>10}  {_ms(p.plain_s)}  {_ms(p.secure_s)}"
            f"  {p.overhead_pct:>10.1f}%")
    shape = "falls with size (matches Figure 2)" if curve.monotone_decreasing_tail() \
        else "NOT falling monotonically — investigate"
    lines.append(f"  shape: overhead {shape}")
    return "\n".join(lines)


def format_group_scaling(points: list[GroupScalePoint]) -> str:
    lines = [
        "A3: group messaging scaling (sendMsgPeerGroup vs secure variant)",
        f"  {'members':>8}  {'plain':>12}  {'secure':>12}  {'overhead %':>11}",
    ]
    for p in points:
        lines.append(
            f"  {p.group_size:>8}  {_ms(p.plain_s)}  {_ms(p.secure_s)}"
            f"  {p.overhead_pct:>10.1f}%")
    return "\n".join(lines)


def format_baselines(points: list[BaselineComparisonPoint],
                     size_bytes: int) -> str:
    lines = [
        f"A4: N-message conversation cost ({size_bytes} B payloads)",
        f"  {'N':>5}  {'stateless':>12}  {'TLS(ch.)':>12}  {'CBJX':>12}  winner",
    ]
    for p in points:
        best = min(("stateless", p.stateless_s), ("tls", p.tls_s),
                   ("cbjx*", p.cbjx_s), key=lambda kv: kv[1])[0]
        lines.append(
            f"  {p.n_messages:>5}  {_ms(p.stateless_s)}  {_ms(p.tls_s)}"
            f"  {_ms(p.cbjx_s)}  {best}")
    lines.append("  (*CBJX provides no confidentiality — cheaper but weaker)")
    return "\n".join(lines)


def format_obs(data: dict) -> str:
    """E-OBS — the observability registry's view of the secure workload."""
    meta = data.get("meta", {})
    lines = [
        "E-OBS: per-primitive distributions (repro.obs registry)",
        f"  rsa={meta.get('rsa_bits', '?')}  link={meta.get('link', '?')}"
        f"  repeats={meta.get('repeats', '?')}"
        f"  msg_size={meta.get('msg_size_bytes', '?')} B",
        f"  {'primitive':>16}  {'calls':>6}  {'p50 ms':>9}  {'p95 ms':>9}"
        f"  {'p50 bytes':>10}  {'p95 bytes':>10}",
    ]
    for name, p in data.get("primitives", {}).items():
        lat = p.get("latency_ms") or {}
        by = p.get("bytes_sent") or {}
        lines.append(
            f"  {name:>16}  {p.get('calls', 0):>6}"
            f"  {lat.get('p50', 0.0):>9.3f}  {lat.get('p95', 0.0):>9.3f}"
            f"  {by.get('p50', 0.0):>10.0f}  {by.get('p95', 0.0):>10.0f}")
    spans = data.get("spans", {})
    if spans:
        lines.append(f"  {'span':>32}  {'count':>6}  {'p50 ms':>9}  {'p95 ms':>9}")
        for name in sorted(spans):
            s = spans[name]
            lines.append(
                f"  {name:>32}  {s.get('count', 0):>6}"
                f"  {s.get('p50', 0.0):>9.3f}  {s.get('p95', 0.0):>9.3f}")
    return "\n".join(lines)


def format_policy_ablation(rows: list[PolicyAblationRow]) -> str:
    lines = [
        "A2: policy ablation (key size / suite)",
        f"  {'policy':>24}  {'secure join':>14}  {'secure msg':>14}",
    ]
    for r in rows:
        lines.append(
            f"  {r.label:>24}  {_ms(r.join_secure_s)}  {_ms(r.msg_secure_s)}")
    return "\n".join(lines)
