"""E-GROUP: broker-mediated group cast vs the iterated §4.3 fan-out.

The paper's ``secureMsgPeerGroup`` pays per-member sender cost: resolve
+ sign + seal + push once for every recipient.  The group-cast path
(``policy.enable_group_cast``) inverts the shape — the sender seals the
payload **once** under the group's epoch key and hands its home broker
one ``group_cast`` frame; the broker fans out locally and relays the
ciphertext ring-wide as ``fed_group_cast``.  This experiment prices the
inversion:

* **group-size sweep** — members 10..100k on a fixed 2-broker ring.
  Per-sender cost (RSA ops, epoch seals, frames, bytes on the client
  uplink) must stay **flat** while delivered count tracks the group
  size; mean virtual delivery latency shows the broker-side fan-out
  cost.
* **broker sweep** — a fixed-size group sharded across 1/2/4/8 brokers.
  Relay amplification must be exactly ``brokers - 1`` sealed datagrams
  per cast (the federation ring is fully meshed and the relay is sealed
  once, not per peer).

The iterated baseline is A3's (``--experiment a3``): its exact
``secure_work.frames`` gate pins 3/5/9/17 frames per iterated send at
2/4/8/16 members, and its ``frames_grow_with_members`` check the
growth.  Here the ``single_uplink_frame`` check holds the sender to one
frame per cast at every size.

Group members beyond the two real clients (the sender and one real
receiver riding the full client path) are synthetic *sink subscribers*:
registered sim endpoints with broker-side session + interest records.
They exercise the exact broker fan-out and wire path while keeping a
100k-member world affordable — what is measured (seals, frames, bytes,
virtual time) is identical to real clients; only the sinks' client-side
decryption is skipped.

``python -m repro.bench --experiment group`` prints the report and
writes ``BENCH_GROUP.json`` (under ``benchmarks/out/``), exiting nonzero
if an acceptance check fails.  With ``--gate`` it also compares the
deterministic quantities (frames, bytes and RSA ops per cast with a 20%
tolerance; deliveries and relay amplification exactly) against the
committed ``benchmarks/baselines/BENCH_GROUP.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bench import fixtures
from repro.bench.report import format_checks
from repro.bench.timing import fresh_registry, timed_call
from repro.overlay.broker import ConnectedPeer

#: group sizes of the member sweep (total members incl. the two real clients)
GROUP_SIZES = (10, 100, 1_000, 10_000, 100_000)
GROUP_SIZES_QUICK = (10, 100, 1_000)

#: ring widths of the broker sweep
BROKER_COUNTS = (1, 2, 4, 8)
BROKER_COUNTS_QUICK = (1, 2, 4)

#: member sweep runs on this many brokers; broker sweep at this size
SWEEP_BROKERS = 2
SWEEP_SIZE = 1_000
SWEEP_SIZE_QUICK = 100

#: casts measured per cell
MESSAGES = 3

#: the O(1) acceptance pair: sender cost at 10 must equal cost at 10k
CHECK_SPAN = (10, 10_000)

GROUP = "bench-cast"

#: the bench policy with the broker-mediated cast switched on
CAST_POLICY = fixtures.BENCH_POLICY.with_(enable_group_cast=True)


@dataclass
class CastCell:
    """One (group size, broker count) cell of the cast sweeps."""

    group_size: int
    brokers: int
    messages: int
    #: per-cast sender cost — the O(1) claims
    sender_frames_per_cast: float
    sender_bytes_per_cast: float
    epoch_seals_per_cast: float
    rsa_ops_per_cast: float
    #: per-cast fan-out effect
    delivered_per_cast: float
    relayed_per_cast: float
    mean_ms_per_cast: float


_RSA = ("crypto.rsa.private_op", "crypto.rsa.public_op")


class _UplinkTap:
    """Counts frames and bytes leaving one address (the sender's uplink)."""

    def __init__(self, address: str) -> None:
        self.address = address
        self.frames = 0
        self.bytes = 0

    def observe(self, frame) -> None:
        if frame.src == self.address:
            self.frames += 1
            self.bytes += frame.size


def _populate_sinks(net, brokers, n_sinks: int) -> None:
    """Attach synthetic members: endpoint + session + shard interest.

    Round-robin across brokers, installed *below* the membership hooks so
    a 100k world costs 100k dict inserts, not 100k epoch rotations.  The
    sinks' entitlement floor is epoch 1, so the already-established ring
    covers them; only the broker-side fan-out (the measured path) runs.
    """
    handler = lambda frame: None  # noqa: E731 - shared no-op sink endpoint
    for i in range(n_sinks):
        broker = brokers[i % len(brokers)]
        pid = f"urn:jxta:cbid-sink{i:08x}"
        address = f"sink:{i}"
        net.register(address, handler)
        broker.connected[pid] = ConnectedPeer(
            peer_id=pid, username="sink", address=address,
            last_seen=broker.clock.now)
        broker._ensure_group(GROUP).add_member(pid)
        shard = broker.groupcast._shard(GROUP)
        shard.subscribers[pid] = address
        shard.entitled.setdefault(pid, 1)


def _measure_cast(net, registry, sender, messages: int) -> dict:
    before_rsa = {n: registry.count(n) for n in _RSA}
    before_seal = registry.count("crypto.groupkey.seal")
    before_delivered = registry.count("groupcast.delivered")
    before_relayed = registry.count("groupcast.relayed")
    tap = _UplinkTap(sender.address)
    net.add_tap(tap)
    total_s = 0.0
    try:
        for i in range(messages):
            timing = timed_call(
                net, lambda: sender.secure_msg_peer_group(GROUP, f"cast {i}"))
            total_s += timing.total_s
    finally:
        net.remove_tap(tap)
    rsa = sum(registry.count(n) - before_rsa[n] for n in _RSA)
    return {
        "messages": messages,
        "sender_frames_per_cast": tap.frames / messages,
        "sender_bytes_per_cast": tap.bytes / messages,
        "epoch_seals_per_cast":
            (registry.count("crypto.groupkey.seal") - before_seal) / messages,
        "rsa_ops_per_cast": rsa / messages,
        "delivered_per_cast":
            (registry.count("groupcast.delivered") - before_delivered) / messages,
        "relayed_per_cast":
            (registry.count("groupcast.relayed") - before_relayed) / messages,
        "mean_ms_per_cast": total_s / messages * 1e3,
    }


def _cast_cell(size: int, n_brokers: int, messages: int = MESSAGES) -> CastCell:
    with fresh_registry() as registry:
        net, _admin, brokers, clients = fixtures.build_federated_secure_world(
            n_brokers, n_clients=2, policy=CAST_POLICY,
            seed=b"e-group|%d|%d" % (size, n_brokers))
        sender, receiver = clients
        sender.secure_create_group(GROUP)
        receiver.secure_join_group(GROUP)
        _populate_sinks(net, brokers, max(0, size - 2))
        # Warm-up: the first cast absorbs the one-time stale-epoch retry
        # after the join rotation; what follows is steady state.
        sender.secure_msg_peer_group(GROUP, "establish")
        stats = _measure_cast(net, registry, sender, messages)
    return CastCell(group_size=size, brokers=n_brokers, **stats)


def _checks(size_cells: list[CastCell], broker_cells: list[CastCell]) -> dict:
    by_size = {c.group_size: c for c in size_cells}
    lo_n, hi_n = CHECK_SPAN
    lo = by_size.get(lo_n) or size_cells[0]
    hi = by_size.get(hi_n) or size_cells[-1]
    span = hi.group_size / lo.group_size
    checks = {
        "o1_span": f"{lo.group_size}->{hi.group_size} members ({span:.0f}x)",
        # O(1): the sender pays the same frames/seals/RSA at both ends.
        "o1_sender_frames_flat":
            hi.sender_frames_per_cast == lo.sender_frames_per_cast,
        "o1_epoch_seals_flat":
            hi.epoch_seals_per_cast == lo.epoch_seals_per_cast == 1.0,
        "o1_rsa_flat": hi.rsa_ops_per_cast == lo.rsa_ops_per_cast,
        # one uplink datagram per logical message
        "single_uplink_frame": all(
            c.sender_frames_per_cast == 1.0 for c in size_cells),
        # every member except the sender gets the frame, every cast
        "all_delivered": all(
            c.delivered_per_cast == c.group_size - 1
            for c in size_cells + broker_cells),
        # relay amplification is exactly ring width - 1
        "relay_is_ring_minus_one": all(
            c.relayed_per_cast == c.brokers - 1 for c in broker_cells),
    }
    checks["all_passed"] = all(
        v for v in checks.values() if isinstance(v, bool))
    return checks


def group_report(quick: bool = False) -> dict:
    """The complete E-GROUP document."""
    sizes = GROUP_SIZES_QUICK if quick else GROUP_SIZES
    broker_counts = BROKER_COUNTS_QUICK if quick else BROKER_COUNTS
    sweep_size = SWEEP_SIZE_QUICK if quick else SWEEP_SIZE
    size_cells = [_cast_cell(size, SWEEP_BROKERS) for size in sizes]
    broker_cells = [_cast_cell(sweep_size, b) for b in broker_counts]
    checks = _checks(size_cells, broker_cells)
    return {
        "experiment": "E-GROUP",
        "quick": quick,
        "rsa_bits": CAST_POLICY.rsa_bits,
        "messages_per_cell": MESSAGES,
        "size_sweep": [asdict(c) for c in size_cells],
        "broker_sweep": [asdict(c) for c in broker_cells],
        "checks": checks,
    }


def format_group(data: dict) -> str:
    lines = [
        f"E-GROUP: broker-mediated group cast "
        f"({data['messages_per_cell']} casts/cell, rsa-{data['rsa_bits']})",
        "",
        f"  size sweep ({SWEEP_BROKERS} brokers):",
        f"  {'members':>8}  {'frames':>7}  {'B/cast':>8}  {'seals':>6}  "
        f"{'RSA':>5}  {'delivered':>10}  {'ms/cast':>9}",
    ]
    for c in data["size_sweep"]:
        lines.append(
            f"  {c['group_size']:>8}  {c['sender_frames_per_cast']:>7.1f}  "
            f"{c['sender_bytes_per_cast']:>8.0f}  "
            f"{c['epoch_seals_per_cast']:>6.1f}  {c['rsa_ops_per_cast']:>5.1f}  "
            f"{c['delivered_per_cast']:>10.1f}  {c['mean_ms_per_cast']:>9.2f}")
    lines += [
        "",
        "  broker sweep:",
        f"  {'brokers':>8}  {'members':>8}  {'relayed':>8}  {'delivered':>10}  "
        f"{'ms/cast':>9}",
    ]
    for c in data["broker_sweep"]:
        lines.append(
            f"  {c['brokers']:>8}  {c['group_size']:>8}  "
            f"{c['relayed_per_cast']:>8.1f}  {c['delivered_per_cast']:>10.1f}  "
            f"{c['mean_ms_per_cast']:>9.2f}")
    lines += ["", *format_checks("E-GROUP", data["checks"])]
    return "\n".join(lines)
