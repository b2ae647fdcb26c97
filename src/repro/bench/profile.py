"""E-HOTPATH: price each stacked layer of the message path, gate its work.

Five PRs stacked per-message layers onto the secure-messaging path —
codec, wire boundary, observability, federation routing, seal/resume
crypto.  This experiment prices that path as a **layer ladder**
(plain → +wire → +obs → +secure → +resumed): every row sends the same
chat-sized message and records, per message, the wall-clock cost and
the work the simulator and the row's metrics registry count — frames
and bytes on the network, RSA private/public/verify operations,
envelope and resume seal/open calls.

``python -m repro.bench --experiment hotpath`` prints the report, writes
``BENCH_HOTPATH.json`` and exits nonzero if an acceptance check fails.
Two extra CLI verbs back the CI gates (see ``python -m
repro.bench.profile --help``):

* ``--gate FRESH [BASELINE]`` — regression gate.  Compares a fresh
  ``BENCH_HOTPATH.json`` against the committed baseline and fails when
  any row's per-message work count rises (bytes per message may grow by
  :data:`REGRESSION_TOLERANCE`).  The counts are deterministic on the
  simulator, so the gate is exact on any machine; wall-clock figures
  are reported but not gated, because their run-to-run spread on a
  shared host is wider than any useful bound.
* ``--check-docs [DOC]`` — drift gate.  The layer-cost table embedded
  in ``docs/PERFORMANCE.md`` must match the one rendered from the
  committed baseline JSON byte-for-byte (same pattern as
  ``python -m repro.wire --check-docs``).

``--cprofile [N]`` runs N steady-state resumed sends under
:mod:`cProfile` and prints the hottest functions.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import obs
from repro.bench import fixtures
from repro.bench.msgfast import _restore_registry, _swap_registry, bench_policy
from repro.bench.paths import bench_out_path

#: --gate tolerance on bytes per message (the only count allowed to grow)
REGRESSION_TOLERANCE = 0.20

#: where CI keeps the committed reference run
BASELINE_PATH = "benchmarks/baselines/BENCH_HOTPATH.json"

#: the document carrying the generated layer-cost table
PERFORMANCE_DOC = "docs/PERFORMANCE.md"

BEGIN_MARK = "<!-- BEGIN GENERATED LAYER COST TABLE -->"
END_MARK = "<!-- END GENERATED LAYER COST TABLE -->"

#: payload every ladder row sends (a chat-sized frame)
_PAYLOAD_TEXT = "hot-path probe " * 4

#: per-message work counts read from each row's registry, by report key
REGISTRY_COUNTS = {
    "rsa_private": "crypto.rsa.private_op",
    "rsa_public": "crypto.rsa.public_op",
    "rsa_verify": "crypto.rsa.verify_op",
    "envelope_seal": "crypto.envelope.seal",
    "envelope_open": "crypto.envelope.open",
    "resume_seal": "crypto.resume.seal",
    "resume_open": "crypto.resume.open",
}

#: every gated per-message count; all but ``bytes`` must not rise at all
WORK_COUNTS = ("frames", "bytes", *REGISTRY_COUNTS)


def _work(net, registry: obs.Registry) -> dict[str, int]:
    """Cumulative work so far: the simulator's traffic and the counters."""
    work = {"frames": net.stats.frames_sent, "bytes": net.stats.bytes_sent}
    for key, name in REGISTRY_COUNTS.items():
        work[key] = registry.count(name)
    return work


def _measure_sends(send, messages: int, net, registry: obs.Registry) -> dict:
    """Wall-clock a send loop and count its work per message.

    Throughput is real CPU seconds, not simulated time (the simulated
    network adds no wall cost).  Frames and bytes come from the
    simulator's own traffic stats, which it keeps whether or not the
    row records metrics; the crypto counts come from ``registry``.
    """
    before = _work(net, registry)
    delivered = 0
    t0 = time.perf_counter()
    for _ in range(messages):
        if send():
            delivered += 1
    wall_s = time.perf_counter() - t0
    after = _work(net, registry)
    return {
        "messages": messages,
        "delivered": delivered,
        "wall_s": round(wall_s, 6),
        "ms_per_msg": round(wall_s / messages * 1e3, 4) if messages else 0.0,
        "msgs_per_sec": round(messages / wall_s, 2) if wall_s else 0.0,
        "per_msg": {key: round((after[key] - before[key]) / messages, 3)
                    for key in WORK_COUNTS},
    }


def _steady_world(seed: bytes):
    """A joined two-client secure world with a minted resume session."""
    net, _admin, _broker, clients = fixtures.build_secure_world(
        n_clients=2, policy=bench_policy(True), seed=seed, joined=True)
    sender, receiver = clients
    # establish: the first send mints the pair-wise session (RSA here,
    # never again) and warms every cache
    sender.secure_msg_peer(str(receiver.peer_id), "bench", "establish")
    return net, sender, receiver


# -- the layer ladder ------------------------------------------------------


def _plain_pair(seed: bytes, wire: bool):
    """A joined plain world; optionally with the wire boundary removed."""
    net, broker, clients = fixtures.build_plain_world(
        n_clients=2, seed=seed)
    fixtures.join_plain(clients)
    if not wire:
        for endpoint in (broker.control.endpoint, clients[0].control.endpoint,
                         clients[1].control.endpoint):
            endpoint._wire = None
    sender, receiver = clients
    sender.send_msg_peer(str(receiver.peer_id), "bench", "warm")
    return net, sender, receiver


def layer_ladder(messages: int = 60) -> list[dict]:
    """Price each stacked layer: plain → +wire → +obs → +secure → +resumed.

    The secure rows use the bench policy (512-bit RSA, so the
    *structure* of the cost is representative, the RSA constants are
    small).  Rows carry ``x_vs_plain`` — how many plain messages one
    message at this layer costs — and ``per_msg``, the work counts the
    gate checks.
    """
    rows: list[dict] = []

    def _run(layer: str, build, obs_enabled: bool) -> None:
        registry, saved = _swap_registry()
        registry.enabled = obs_enabled
        try:
            net, send = build()
            stats = _measure_sends(send, messages, net, registry)
        finally:
            _restore_registry(saved)
        rows.append({"layer": layer, **stats})

    def plain_send(wire: bool):
        net, sender, receiver = _plain_pair(b"e-hotpath-ladder", wire=wire)
        return net, lambda: sender.send_msg_peer(
            str(receiver.peer_id), "bench", _PAYLOAD_TEXT).ok

    def secure_send(fast: bool):
        net, _admin, _broker, clients = fixtures.build_secure_world(
            n_clients=2, policy=bench_policy(fast),
            seed=b"e-hotpath-ladder-sec", joined=True)
        sender, receiver = clients
        sender.secure_msg_peer(str(receiver.peer_id), "bench", "warm")
        return net, lambda: sender.secure_msg_peer(
            str(receiver.peer_id), "bench", _PAYLOAD_TEXT)

    _run("plain", lambda: plain_send(wire=False), obs_enabled=False)
    _run("+wire", lambda: plain_send(wire=True), obs_enabled=False)
    _run("+obs", lambda: plain_send(wire=True), obs_enabled=True)
    _run("+secure (stateless)", lambda: secure_send(fast=False),
         obs_enabled=True)
    _run("+secure resumed", lambda: secure_send(fast=True), obs_enabled=True)

    plain_ms = rows[0]["ms_per_msg"] or 1e-9
    for row in rows:
        row["x_vs_plain"] = round(row["ms_per_msg"] / plain_ms, 2)
    return rows


# -- the experiment document ----------------------------------------------


def _checks(ladder: list[dict]) -> dict:
    resumed = next(row for row in ladder if row["layer"] == "+secure resumed")
    per_msg = resumed["per_msg"]
    checks = {
        "all_delivered": all(
            row["delivered"] == row["messages"] for row in ladder),
        "resumed_zero_rsa": (per_msg["rsa_private"] == per_msg["rsa_public"]
                             == per_msg["rsa_verify"] == 0),
    }
    checks["all_passed"] = all(checks.values())
    return checks


def hotpath_report(quick: bool = False) -> dict:
    """The complete E-HOTPATH document (the ladder + its checks)."""
    ladder = layer_ladder(messages=25 if quick else 60)
    return {
        "experiment": "E-HOTPATH",
        "quick": quick,
        "layers": ladder,
        "checks": _checks(ladder),
    }


def _triple(per_msg: dict, *keys: str) -> str:
    return "/".join(f"{per_msg[key]:g}" for key in keys)


def format_hotpath(data: dict) -> str:
    lines = [
        "E-HOTPATH: the layer ladder (wall clock is information only)",
        f"  {'layer':<22}  {'msgs/sec':>9}  {'ms/msg':>8}  {'x plain':>8}  "
        f"{'frames':>6}  {'bytes':>7}  {'rsa p/u/v':>11}  {'env s/o':>7}  "
        f"{'res s/o':>7}",
    ]
    for row in data["layers"]:
        n = row["per_msg"]
        lines.append(
            f"  {row['layer']:<22}  {row['msgs_per_sec']:>9.1f}  "
            f"{row['ms_per_msg']:>8.2f}  {row['x_vs_plain']:>7.2f}x  "
            f"{n['frames']:>6g}  {n['bytes']:>7g}  "
            f"{_triple(n, 'rsa_private', 'rsa_public', 'rsa_verify'):>11}  "
            f"{_triple(n, 'envelope_seal', 'envelope_open'):>7}  "
            f"{_triple(n, 'resume_seal', 'resume_open'):>7}")
    checks = data["checks"]
    lines += ["", "E-HOTPATH acceptance checks:"]
    for key, value in sorted(checks.items()):
        if key == "all_passed":
            continue
        lines.append(f"  {key:<34} : {value}")
    lines.append(f"  {'all_passed':<34} : {checks['all_passed']}")
    return "\n".join(lines)


def write_bench_hotpath(data: dict,
                        path: str | Path | None = None) -> Path:
    """Persist the E-HOTPATH document as machine-readable JSON."""
    out = Path(path) if path is not None else bench_out_path("BENCH_HOTPATH.json")
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


# -- CI regression gate ----------------------------------------------------


def check_regression(fresh: dict, baseline: dict,
                     tolerance: float = REGRESSION_TOLERANCE) -> list[str]:
    """Problems (empty = pass) comparing a fresh run to the baseline.

    The gated quantities are each row's per-message work counts, exact
    on the simulator: a count above the baseline's is a regression,
    except bytes per message, which may grow by ``tolerance``.
    Wall-clock figures are not compared.
    """
    problems: list[str] = []
    fresh_rows = {row["layer"]: row for row in fresh["layers"]}
    for base_row in baseline["layers"]:
        layer = base_row["layer"]
        row = fresh_rows.get(layer)
        if row is None:
            problems.append(f"layer {layer!r} missing from the fresh run")
            continue
        for key in WORK_COUNTS:
            got, ref = row["per_msg"][key], base_row["per_msg"][key]
            limit = ref * (1.0 + tolerance) if key == "bytes" else ref
            if got > limit:
                problems.append(
                    f"{layer}: {key} per message rose to {got:g} "
                    f"(baseline {ref:g}, limit {limit:g})")
    if not fresh["checks"]["all_passed"]:
        failed = [k for k, v in fresh["checks"].items() if not v]
        problems.append(f"fresh run failed its own checks: {failed}")
    return problems


def gate(fresh_path: str, baseline_path: str = BASELINE_PATH,
         tolerance: float = REGRESSION_TOLERANCE) -> int:
    try:
        fresh = json.loads(Path(fresh_path).read_text(encoding="utf-8"))
        baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"hotpath gate: cannot load inputs: {exc}")
        return 2
    problems = check_regression(fresh, baseline, tolerance)
    print(f"hotpath gate: per-message work of {len(fresh['layers'])} layers "
          f"vs {baseline_path}")
    for problem in problems:
        print(f"hotpath gate: FAIL: {problem}")
    if not problems:
        print("hotpath gate: pass")
    return 1 if problems else 0


# -- the generated layer-cost table (docs drift gate) ----------------------


def render_layer_table(data: dict) -> str:
    """The markdown layer-cost table for ``docs/PERFORMANCE.md``.

    Rendered from a bench document (CI renders from the **committed
    baseline**, so the check is deterministic across machines).
    """
    lines = [
        "| layer | msgs/sec | ms/msg | x vs plain | frames/msg | bytes/msg "
        "| RSA priv/pub/verify | envelope seal/open | resume seal/open |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for row in data["layers"]:
        n = row["per_msg"]
        lines.append(
            f"| {row['layer']} | {row['msgs_per_sec']:.1f} | "
            f"{row['ms_per_msg']:.2f} | {row['x_vs_plain']:.2f}x | "
            f"{n['frames']:g} | {n['bytes']:g} | "
            f"{_triple(n, 'rsa_private', 'rsa_public', 'rsa_verify')} | "
            f"{_triple(n, 'envelope_seal', 'envelope_open')} | "
            f"{_triple(n, 'resume_seal', 'resume_open')} |")
    return "\n".join(lines) + "\n"


def embedded_section(doc_text: str) -> str | None:
    """The generated table embedded in a document, or ``None``."""
    try:
        start = doc_text.index(BEGIN_MARK) + len(BEGIN_MARK)
        end = doc_text.index(END_MARK, start)
    except ValueError:
        return None
    return doc_text[start:end].strip("\n") + "\n"


def check_docs(doc_path: str = PERFORMANCE_DOC,
               baseline_path: str = BASELINE_PATH) -> int:
    try:
        doc = Path(doc_path).read_text(encoding="utf-8")
        baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"drift check: cannot load inputs: {exc}")
        return 2
    embedded = embedded_section(doc)
    if embedded is None:
        print(f"drift check: {doc_path} has no "
              f"{BEGIN_MARK!r}...{END_MARK!r} section")
        return 2
    expected = render_layer_table(baseline)
    if embedded != expected:
        print(f"drift check: {doc_path} layer table is out of date — "
              "regenerate with `python -m repro.bench.profile "
              f"--update-docs` after refreshing {baseline_path}")
        return 1
    print(f"drift check: {doc_path} layer table matches {baseline_path}")
    return 0


def update_docs(doc_path: str = PERFORMANCE_DOC,
                baseline_path: str = BASELINE_PATH) -> int:
    doc = Path(doc_path).read_text(encoding="utf-8")
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    try:
        start = doc.index(BEGIN_MARK) + len(BEGIN_MARK)
        end = doc.index(END_MARK, start)
    except ValueError:
        print(f"update-docs: {doc_path} lacks the marker section")
        return 2
    updated = (doc[:start] + "\n" + render_layer_table(baseline) + doc[end:])
    Path(doc_path).write_text(updated, encoding="utf-8")
    print(f"update-docs: rewrote the layer table in {doc_path}")
    return 0


# -- cProfile attachment ---------------------------------------------------


def run_cprofile(messages: int = 300, top: int = 20) -> int:
    """Profile ``messages`` steady-state resumed sends with cProfile."""
    import cProfile
    import pstats

    registry, saved = _swap_registry()
    try:
        _net, sender, receiver = _steady_world(b"e-hotpath-cprofile")
        peer = str(receiver.peer_id)
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(messages):
            sender.secure_msg_peer(peer, "bench", _PAYLOAD_TEXT)
        profiler.disable()
    finally:
        _restore_registry(saved)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile",
        description="E-HOTPATH gates: regression, docs drift, cProfile")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gate", nargs="+", metavar="JSON",
                       help="compare FRESH [BASELINE] hotpath documents; "
                            f"baseline defaults to {BASELINE_PATH}")
    group.add_argument("--check-docs", nargs="?", const=PERFORMANCE_DOC,
                       metavar="DOC",
                       help="verify the generated layer table in DOC "
                            f"against {BASELINE_PATH}")
    group.add_argument("--update-docs", nargs="?", const=PERFORMANCE_DOC,
                       metavar="DOC",
                       help="rewrite the generated layer table in DOC "
                            f"from {BASELINE_PATH}")
    group.add_argument("--dump-table", action="store_true",
                       help=f"print the layer table from {BASELINE_PATH}")
    group.add_argument("--cprofile", nargs="?", const=300, type=int,
                       metavar="N",
                       help="profile N steady-state resumed sends")
    args = parser.parse_args(argv)
    if args.gate:
        baseline = args.gate[1] if len(args.gate) > 1 else BASELINE_PATH
        return gate(args.gate[0], baseline)
    if args.check_docs:
        return check_docs(args.check_docs)
    if args.update_docs:
        return update_docs(args.update_docs)
    if args.dump_table:
        baseline = json.loads(
            Path(BASELINE_PATH).read_text(encoding="utf-8"))
        print(render_layer_table(baseline), end="")
        return 0
    if args.cprofile:
        return run_cprofile(args.cprofile)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
