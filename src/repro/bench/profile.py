"""E-HOTPATH: price each stacked layer of the message path, gate its work.

Per-message layers sit on the secure-messaging path — codec, wire
boundary, federation routing, seal/resume crypto.  This experiment
prices that path as a **layer ladder** (plain → +wire → +secure →
+resumed): every row sends the same chat-sized message and records,
per message, the wall-clock cost and the work the row's metrics
registry counts — frames and bytes on the network, RSA
private/public/verify operations, envelope and resume seal/open calls.

``python -m repro.bench --experiment hotpath`` prints the report, writes
``BENCH_HOTPATH.json`` and exits nonzero if an acceptance check fails.
With ``--gate`` it also compares the fresh run against the committed
baseline and fails when any row's per-message work count rises (bytes
per message may grow by 20%; the rows live in
:mod:`repro.bench.harness`).  The counts are deterministic on the
simulator, so the gate is exact on any machine; wall-clock figures are
reported but not gated, because their run-to-run spread on a shared
host is wider than any useful bound.

``python -m repro.bench --check-docs`` is the drift gate: the layer-cost
table embedded in ``docs/PERFORMANCE.md`` must match the one rendered
from the committed baseline JSON byte-for-byte (same pattern as
``python -m repro.wire --check-docs``); ``--update-docs`` regenerates
it.  ``--cprofile [N]`` runs N steady-state resumed sends under
:mod:`cProfile` and prints the hottest functions.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import fixtures, paths
from repro.bench.experiments import stateless
from repro.bench.report import format_checks, triple
from repro.bench.timing import fresh_registry, timed_call, work_per_op

#: where CI keeps the committed reference run
BASELINE_PATH = paths.baseline_path("hotpath")

#: the document carrying the generated layer-cost table
PERFORMANCE_DOC = "docs/PERFORMANCE.md"

BEGIN_MARK = "<!-- BEGIN GENERATED LAYER COST TABLE -->"
END_MARK = "<!-- END GENERATED LAYER COST TABLE -->"

#: payload every ladder row sends (a chat-sized frame)
_PAYLOAD_TEXT = "hot-path probe " * 4


def _measure_sends(send, messages: int, net) -> dict:
    """Wall-clock a send loop and count its work per message.

    Throughput is real CPU seconds, not simulated time (the simulated
    network adds no wall cost).  Frames, bytes and the crypto counts
    come from the row's registry.
    """
    delivered = 0

    def loop() -> None:
        nonlocal delivered
        for _ in range(messages):
            if send():
                delivered += 1

    timing = timed_call(net, loop)
    wall_s = timing.wall_cpu_s
    return {
        "messages": messages,
        "delivered": delivered,
        "wall_s": round(wall_s, 6),
        "ms_per_msg": round(wall_s / messages * 1e3, 4) if messages else 0.0,
        "msgs_per_sec": round(messages / wall_s, 2) if wall_s else 0.0,
        "per_msg": work_per_op([timing], messages),
    }


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


def _secure_pair(fast: bool):
    """A joined secure pair after one warm-up send.

    With *fast* the warm-up mints the pair-wise resume session (RSA
    there, never again) and every later send rides it; without, each
    send is the paper's stateless secureMsgPeer.
    """
    policy = fixtures.BENCH_POLICY
    if not fast:
        policy = stateless(policy)
    net, _admin, _broker, clients = fixtures.build_secure_world(
        n_clients=2, policy=policy, seed=b"e-hotpath-ladder-sec", joined=True)
    sender, receiver = clients
    sender.secure_msg_peer(str(receiver.peer_id), "bench", "warm")
    return net, sender, receiver


def layer_ladder(messages: int = 60) -> list[dict]:
    """Price each stacked layer: plain → +wire → +secure → +resumed.

    The secure rows use the bench policy (512-bit RSA, so the
    *structure* of the cost is representative, the RSA constants are
    small).  Rows carry ``x_vs_plain`` — how many plain messages one
    message at this layer costs — and ``per_msg``, the work counts the
    gate checks.
    """
    rows: list[dict] = []

    def _run(layer: str, build) -> None:
        with fresh_registry():
            net, send = build()
            stats = _measure_sends(send, messages, net)
        rows.append({"layer": layer, **stats})

    def plain_send(wire: bool):
        net, sender, receiver = _plain_pair(b"e-hotpath-ladder", wire=wire)
        return net, lambda: sender.send_msg_peer(
            str(receiver.peer_id), "bench", _PAYLOAD_TEXT).ok

    def secure_send(fast: bool):
        net, sender, receiver = _secure_pair(fast)
        return net, lambda: sender.secure_msg_peer(
            str(receiver.peer_id), "bench", _PAYLOAD_TEXT)

    _run("plain", lambda: plain_send(wire=False))
    _run("+wire", lambda: plain_send(wire=True))
    _run("+secure (stateless)", lambda: secure_send(fast=False))
    _run("+secure resumed", lambda: secure_send(fast=True))

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
            f"{triple(n, 'rsa_private', 'rsa_public', 'rsa_verify'):>11}  "
            f"{triple(n, 'envelope_seal', 'envelope_open'):>7}  "
            f"{triple(n, 'resume_seal', 'resume_open'):>7}")
    lines += ["", *format_checks("E-HOTPATH", data["checks"])]
    return "\n".join(lines)


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
            f"{triple(n, 'rsa_private', 'rsa_public', 'rsa_verify')} | "
            f"{triple(n, 'envelope_seal', 'envelope_open')} | "
            f"{triple(n, 'resume_seal', 'resume_open')} |")
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
               baseline_path: str | Path = BASELINE_PATH) -> int:
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
              "regenerate with `python -m repro.bench --update-docs` "
              f"after refreshing {baseline_path}")
        return 1
    print(f"drift check: {doc_path} layer table matches {baseline_path}")
    return 0


def update_docs(doc_path: str = PERFORMANCE_DOC,
                baseline_path: str | Path = BASELINE_PATH) -> int:
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

    with fresh_registry():
        _net, sender, receiver = _secure_pair(fast=True)
        peer = str(receiver.peer_id)
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(messages):
            sender.secure_msg_peer(peer, "bench", _PAYLOAD_TEXT)
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0
