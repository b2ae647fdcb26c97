"""E-MSGFAST: cost of the secure-messaging fast paths.

Measures what no other experiment measures:

* **fast vs stateless at N = 16** — ``secure_msg_peer_group`` to
  :data:`CHECK_GROUP_SIZE` members with both fast paths on against the
  paper's stateless path (:func:`repro.bench.experiments.stateless`).
  The stateless sender pays N signs + N wraps per message (and N
  unwraps + N verifies across the receivers); with ``enable_seal_many``
  the payload is signed once and sealed once under a shared CEK
  (1 sign + N wraps), and with ``enable_resumption`` every message
  after the first rides pair-wise sessions.  A3 owns the iterated send
  across group sizes, and E-HOTPATH's ``+secure resumed`` rung the
  0-RSA resumed steady state.
* **wire sweep** — transport-level bytes-on-wire and frames-per-wire-unit
  under the link-layer send scheduler (:mod:`repro.net.linkq`): burst vs
  trickle load across uncorked sends ("legacy", one wire unit per
  send), corked batching, and batching with negotiated zlib
  compression.  Everything here is measured on the
  virtual-time simulator, so the numbers are deterministic and the
  ``--gate`` regression check (see below) compares them across machines
  without noise tolerance games.

RSA operation counts are the measured sends' work
(:func:`repro.bench.timing.timed_call`) under a swapped-in fresh
registry, so world setup, joins and advertisement exchange are excluded.

``python -m repro.bench --experiment msgfast`` prints the report, writes
``BENCH_MSGFAST.json`` and exits nonzero if any acceptance check fails
(CI runs the ``--quick`` variant and relies on that exit code).  With
``--gate`` it also compares the deterministic wire quantities against
the committed ``benchmarks/baselines/BENCH_MSGFAST.json`` and fails on
a >20% regression (the rows live in :mod:`repro.bench.harness`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass

from repro import obs
from repro.bench import fixtures
from repro.bench.experiments import stateless
from repro.bench.report import format_checks
from repro.bench.timing import WORK_COUNTS, fresh_registry, mean_total, timed_call
from repro.sim.network import SimNetwork

#: the group size the fast-vs-stateless sweep runs and is checked at
CHECK_GROUP_SIZE = 16

#: messages per wire-sweep cell (same in quick mode: virtual time is free)
WIRE_MESSAGES = 64
WIRE_MODES = ("legacy", "batched", "batched+zlib")
WIRE_LOADS = ("burst", "trickle")


@dataclass
class SweepCell:
    """One (fast on/off) cell of the group sweep."""

    fast: bool
    group_size: int
    messages: int
    delivered: int
    rsa_private_ops: int
    rsa_public_ops: int
    rsa_verify_ops: int
    resumed_frames: int
    mean_ms_per_msg: float

    @property
    def rsa_ops(self) -> int:
        return self.rsa_private_ops + self.rsa_public_ops


def _measure(net, send, messages: int) -> dict:
    """Run ``messages`` sends, returning their summed work + mean cost."""
    timings = []
    delivered = 0
    for _ in range(messages):
        result = {}

        def one_send():
            result["n"] = send()

        timings.append(timed_call(net, one_send))
        delivered += int(result["n"])
    done = {key: sum(t.work[key] for t in timings) for key in WORK_COUNTS}
    return {
        "delivered": delivered,
        "rsa_private_ops": done["rsa_private"],
        "rsa_public_ops": done["rsa_public"],
        "rsa_verify_ops": done["rsa_verify"],
        "resumed_frames": done["resume_seal"],
        "mean_ms_per_msg": mean_total(timings) * 1e3,
    }


def group_sweep(messages: int = 3) -> list[SweepCell]:
    """``secure_msg_peer_group`` to :data:`CHECK_GROUP_SIZE` members,
    stateless then fast."""
    cells: list[SweepCell] = []
    size = CHECK_GROUP_SIZE
    for fast in (False, True):
        policy = fixtures.BENCH_POLICY
        if not fast:
            policy = stateless(policy)
        with fresh_registry():
            net, _admin, _broker, clients = fixtures.build_secure_world(
                n_clients=size + 1, policy=policy,
                seed=b"e-msgfast-group", joined=True)
            sender = clients[0]
            stats = _measure(
                net,
                lambda: sender.secure_msg_peer_group(
                    "bench", "fast-path probe"),
                messages)
        cells.append(SweepCell(fast=fast, group_size=size,
                               messages=messages, **stats))
    return cells


@dataclass
class WireCell:
    """One (mode, load) cell of the wire sweep."""

    mode: str            # "legacy" | "batched" | "batched+zlib"
    load: str            # "burst" | "trickle"
    messages: int
    delivered: int
    intact: bool         # payload sequence survived byte-for-byte, in order
    wire_units: int      # simulated deliveries (frames the link model saw)
    bytes_on_wire: int
    frames_per_unit: float
    bytes_per_msg: float
    virtual_ms: float
    msgs_per_sec: float  # virtual-time rate; deterministic across machines


def _wire_payloads(messages: int) -> list[bytes]:
    """Distinct, compressible payloads shaped like small overlay frames."""
    filler = b" payload-filler" * 8
    return [b"wire-sweep message %04d%s" % (i, filler)
            for i in range(messages)]


def _wire_cell(mode: str, load: str, registry: obs.Registry,
               messages: int = WIRE_MESSAGES) -> WireCell:
    """Drive one cell through a fresh simulator and read its traffic
    counters from ``registry``."""
    net = SimNetwork()
    received: list[bytes] = []
    net.register("rx", lambda frame: received.append(frame.payload) or None)
    policy = net.scheduler.policy
    if mode == "batched+zlib":
        net.set_link_compression("tx", "rx", 6)
    payloads = _wire_payloads(messages)
    units0 = registry.count("net.frames_sent")
    bytes0 = registry.count("net.bytes_sent")
    t0 = net.clock.now
    if load == "burst":
        # "legacy" is the same burst without a cork: one unit per send.
        with net.corked() if mode != "legacy" else nullcontext():
            for payload in payloads:
                net.send("tx", "rx", payload)
    else:
        for payload in payloads:
            net.send("tx", "rx", payload)
            net.clock.advance(policy.idle_flush_s * 2)
    wire_units = registry.count("net.frames_sent") - units0
    bytes_on_wire = registry.count("net.bytes_sent") - bytes0
    virtual_s = net.clock.now - t0
    return WireCell(
        mode=mode, load=load, messages=messages,
        delivered=len(received), intact=received == payloads,
        wire_units=wire_units, bytes_on_wire=bytes_on_wire,
        frames_per_unit=messages / wire_units if wire_units else 0.0,
        bytes_per_msg=bytes_on_wire / messages if messages else 0.0,
        virtual_ms=virtual_s * 1e3,
        msgs_per_sec=messages / virtual_s if virtual_s > 0 else 0.0)


def wire_sweep(messages: int = WIRE_MESSAGES) -> list[WireCell]:
    """Bytes-on-wire and frames-per-wire-unit, every (mode, load) pair."""
    cells: list[WireCell] = []
    for mode in WIRE_MODES:
        for load in WIRE_LOADS:
            with fresh_registry() as registry:
                cells.append(_wire_cell(mode, load, registry,
                                        messages=messages))
    return cells


def _wire_checks(cells: list[WireCell]) -> dict:
    """Acceptance gates over the wire sweep (merged into ``checks``)."""
    by_key = {(c.mode, c.load): c for c in cells}
    legacy = by_key[("legacy", "burst")]
    batched = by_key[("batched", "burst")]
    zlib_cell = by_key[("batched+zlib", "burst")]
    reduction = (legacy.wire_units / batched.wire_units
                 if batched.wire_units else float("inf"))
    legacy_trickle = by_key[("legacy", "trickle")]
    batched_trickle = by_key[("batched", "trickle")]
    return {
        "wire_burst_frames_per_unit": batched.frames_per_unit,
        "wire_burst_batching_at_least_4": batched.frames_per_unit >= 4.0,
        "wire_unit_reduction": reduction,
        "wire_unit_reduction_at_least_2x": reduction >= 2.0,
        "wire_compression_shrinks_bytes":
            zlib_cell.bytes_on_wire < batched.bytes_on_wire,
        # Single-frame flushes reuse the legacy framing byte-for-byte, so
        # an idle link's trickle is the same wire in every mode.
        "wire_trickle_byte_identical":
            batched_trickle.bytes_on_wire == legacy_trickle.bytes_on_wire
            and batched_trickle.wire_units == legacy_trickle.wire_units,
        "wire_all_delivered": all(
            c.intact and c.delivered == c.messages for c in cells),
    }


def _checks(group_cells: list[SweepCell]) -> dict:
    """The acceptance gates (CI fails the build on any False)."""
    by_fast = {c.fast: c for c in group_cells}
    base, fast = by_fast[False], by_fast[True]
    n = CHECK_GROUP_SIZE
    reduction = (base.rsa_ops / fast.rsa_ops) if fast.rsa_ops else float("inf")
    return {
        f"fast_cheaper_private_at_{n}":
            fast.rsa_private_ops < base.rsa_private_ops,
        f"fast_cheaper_public_at_{n}":
            fast.rsa_public_ops < base.rsa_public_ops,
        f"rsa_reduction_at_{n}": reduction,
        "rsa_reduction_at_least_3x": reduction >= 3.0,
        "all_delivered": all(
            c.delivered == c.messages * c.group_size for c in group_cells),
    }


def msgfast_report(quick: bool = False) -> dict:
    """The complete E-MSGFAST document."""
    # 3 messages per cell: one establishing + two resumed sends is the
    # smallest run where the amortized RSA saving is visible.
    messages = 3
    group_cells = group_sweep(messages=messages)
    # The wire sweep runs at full size even in quick mode: it is pure
    # virtual time, so 64 messages cost milliseconds — and the gate
    # needs identical parameters in CI and baseline runs.
    wire_cells = wire_sweep()
    checks = _checks(group_cells)
    checks.update(_wire_checks(wire_cells))
    checks["all_passed"] = all(
        value for value in checks.values() if isinstance(value, bool))
    return {
        "experiment": "E-MSGFAST",
        "quick": quick,
        "rsa_bits": fixtures.BENCH_POLICY.rsa_bits,
        "messages_per_group_cell": messages,
        "group_sweep": [asdict(c) for c in group_cells],
        "wire_sweep": [asdict(c) for c in wire_cells],
        "checks": checks,
    }


def format_msgfast(data: dict) -> str:
    lines = [
        "E-MSGFAST: secureMsgPeerGroup, fast paths on vs off "
        f"({data['messages_per_group_cell']} msgs/cell, "
        f"rsa-{data['rsa_bits']})",
        f"  {'N':>4}  {'mode':>8}  {'RSA priv':>9}  {'RSA pub':>8}  "
        f"{'RSA vrfy':>9}  {'resumed':>8}  {'ms/msg':>8}",
    ]
    for cell in data["group_sweep"]:
        lines.append(
            f"  {cell['group_size']:>4}  "
            f"{'fast' if cell['fast'] else 'baseline':>8}  "
            f"{cell['rsa_private_ops']:>9}  {cell['rsa_public_ops']:>8}  "
            f"{cell['rsa_verify_ops']:>9}  {cell['resumed_frames']:>8}  "
            f"{cell['mean_ms_per_msg']:>8.2f}")
    lines += [
        "",
        f"E-MSGFAST: wire sweep ({WIRE_MESSAGES} msgs/cell, link scheduler)",
        f"  {'mode':>12}  {'load':>8}  {'units':>6}  {'frames/u':>9}  "
        f"{'bytes':>8}  {'B/msg':>8}",
    ]
    for cell in data.get("wire_sweep", ()):
        lines.append(
            f"  {cell['mode']:>12}  {cell['load']:>8}  "
            f"{cell['wire_units']:>6}  {cell['frames_per_unit']:>9.1f}  "
            f"{cell['bytes_on_wire']:>8}  {cell['bytes_per_msg']:>8.1f}")
    lines += [
        "",
        *format_checks("E-MSGFAST", data["checks"]),
    ]
    return "\n".join(lines)
