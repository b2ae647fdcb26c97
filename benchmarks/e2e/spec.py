"""What E-E2E runs and what it reports: workloads, metrics, constants.

Everything here is plain data so the parent, every child process and the
self-tests agree on it.  Metric names, units, directions and bounds, the
workload names and ``run_seconds`` are read from ``BENCHMARK.json`` at
the repository root; this module adds what that file has no room for.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

#: An operation that has not completed after this long counts as failed.
DEADLINE_S = 5.0

#: Complete deployments built per measured invocation.  ``setup_s`` is
#: the median of their build times, and the windows of all builds are
#: pooled.
SETUPS = 3

#: Operations per caller before the measured window (sessions, caches).
#: ``peak_rss_mib`` is read after them.
WARMUP_OPS = {"join": 2, "chat": 20, "e2_sweep": 2, "group_cast": 6}

#: Untimed plain-protocol operations per caller, for the paper's ratios.
PLAIN_OPS = {"join": 25, "e2_sweep": 10}

#: Operations the simulator runs for ``sim_p50_ms``.
SIM_OPS = 20

#: The speed probe: a fixed loop of PROBE_LOOPS iterations, timed every
#: PROBE_INTERVAL_S in the parent (about 2% of one core).  Reported times
#: are converted to the speed at which the loop takes REFERENCE_PROBE_MS,
#: roughly this benchmark host's median.
PROBE_LOOPS = 10_000
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_MS = 1.2

#: Distinct payload bodies per message size (ids keep every text unique).
PAYLOAD_POOL = 32

#: Width of the "<op id>|<digest>|" header every message text starts with.
OP_ID_WIDTH = 10
DIGEST_WIDTH = 16
HEADER_LEN = OP_ID_WIDTH + 1 + DIGEST_WIDTH + 1


@dataclass(frozen=True)
class Member:
    """One receiving peer in the ``sink`` process."""

    user: str
    home: str
    secure: bool = True
    #: the driver user whose messages this member accepts (None: observer)
    sender: str | None = None


@dataclass(frozen=True)
class Caller:
    """One closed-loop caller in the ``driver`` process."""

    user: str
    home: str
    #: sink member this caller sends to (messaging workloads)
    target: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: "join" (secure join), "msg" (secureMsgPeer) or "cast" (group cast)
    kind: str
    group: str
    #: keyword overrides applied to ``DEFAULT_POLICY``
    policy: dict
    brokers: int
    callers: tuple[Caller, ...]
    members: tuple[Member, ...]
    #: message text sizes sent in turn by one operation (empty for joins)
    sizes: tuple[int, ...] = ()
    #: link scheduler (``configure_links``) in every process
    linkq: bool = False
    #: untimed plain-protocol comparison on a plain ``Broker``
    plain_callers: tuple[Caller, ...] = ()
    plain_members: tuple[Member, ...] = ()

    @property
    def users(self) -> tuple[str, ...]:
        everyone = (*self.callers, *self.members, *self.plain_callers,
                    *self.plain_members)
        return tuple(p.user for p in everyone)


PLAIN_BROKER = "broker:plain"

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="join",
        kind="join", group="lobby", policy={}, brokers=1,
        callers=(Caller("j0", "broker:0"), Caller("j1", "broker:0")),
        # Logged-in group members receive the join fan-out
        # (peer_joined, adv_push, peer_left) like any real lobby.
        members=(Member("o0", "broker:0"), Member("o1", "broker:0")),
        plain_callers=(Caller("pj0", PLAIN_BROKER), Caller("pj1", PLAIN_BROKER)),
        plain_members=(Member("po0", PLAIN_BROKER, secure=False),
                       Member("po1", PLAIN_BROKER, secure=False)),
    ),
    Workload(
        name="chat",
        kind="msg", group="chat", policy={}, brokers=1, sizes=(256,),
        callers=(Caller("c0", "broker:0", "r0"), Caller("c1", "broker:0", "r1")),
        members=(Member("r0", "broker:0", sender="c0"),
                 Member("r1", "broker:0", sender="c1")),
    ),
    Workload(
        name="e2_sweep",
        kind="msg", group="e2", brokers=1, sizes=(256, 4096, 65536),
        policy={"enable_resumption": False, "enable_seal_many": False},
        callers=(Caller("s0", "broker:0", "d0"), Caller("s1", "broker:0", "d1")),
        members=(Member("d0", "broker:0", sender="s0"),
                 Member("d1", "broker:0", sender="s1")),
        plain_callers=(Caller("ps0", PLAIN_BROKER, "pd0"),
                       Caller("ps1", PLAIN_BROKER, "pd1")),
        plain_members=(Member("pd0", PLAIN_BROKER, secure=False, sender="ps0"),
                       Member("pd1", PLAIN_BROKER, secure=False, sender="ps1")),
    ),
    Workload(
        name="group_cast",
        kind="cast", group="cast", policy={"enable_group_cast": True},
        brokers=2, linkq=True, sizes=(256,),
        callers=(Caller("g0", "broker:0"),),
        members=tuple(Member(f"m{i}", f"broker:{i % 2}", sender="g0")
                      for i in range(6)),
    ),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end: regression bound (share of the parent's median)
    bound: float | None = None
    #: per-layer: which program layer, where the number comes from, and
    #: which end-to-end metric it should move on which workload
    layer: str = ""
    source: str = ""
    moves: tuple[str, str] = ("", "")


@functools.cache
def benchmark() -> dict:
    """``BENCHMARK.json`` at the repository root."""
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_seconds() -> float:
    """Seconds one invocation measures, shared by its builds' windows."""
    return benchmark()["run_seconds"]


@functools.cache
def gated_metrics() -> tuple[Metric, ...]:
    """The end-to-end metrics, with their regression bounds."""
    return tuple(Metric(**m) for m in benchmark()["end_to_end"])


ROLES = ("driver", "broker", "sink")

#: per-layer metric name -> (layer, source, moves)
_LAYERS: dict[str, tuple[str, str, tuple[str, str]]] = {
    "net.tcp.frames_per_op": (
        "net", "counter net.tcp.frames_sent", ("cpu_ms_per_op", "group_cast")),
    "net.tcp.bytes_per_op": (
        "net", "counter net.tcp.bytes_sent", ("p50_ms", "e2_sweep")),
    "net.batch.frames_per_unit": (
        "net", "counters net.queue.enqueued, net.batch.units, net.batch.frames",
        ("cpu_ms_per_op", "group_cast")),
    "net.tcp.handler_errors": (
        "net", "counter net.tcp.handler_errors (total)", ("ops_per_s", "join")),
    "net.tcp.ms_per_op": (
        "net", "self time in TcpTransport.send and .request (a request "
               "waits for its reply)", ("p50_ms", "join")),
    "net.framing.ms_per_op": (
        "net", "framing encode_frame/decode_body/batch encode+decode",
        ("cpu_ms_per_op", "chat")),
    "net.dispatch.ms_per_op": (
        "net", "self time in the handler given to TcpTransport.register",
        ("p50_ms", "group_cast")),
    "jxta.codec.calls_per_op": (
        "jxta", "calls to Message.to_wire/from_wire", ("cpu_ms_per_op", "chat")),
    "jxta.codec.ms_per_op": (
        "jxta", "self time in Message.to_wire/from_wire",
        ("cpu_ms_per_op", "chat")),
    "xmllib.parse.ms_per_op": (
        "xmllib", "self time in xmllib.parse", ("p50_ms", "e2_sweep")),
    "xmllib.serialize.ms_per_op": (
        "xmllib", "self time in xmllib.serialize", ("p50_ms", "e2_sweep")),
    "xmllib.canonicalize.ms_per_op": (
        "xmllib", "self time in xmllib.canonicalize", ("p50_ms", "join")),
    "wire.check.ms_per_op": (
        "wire", "self time in repro.wire check/decode", ("cpu_ms_per_op", "chat")),
    "wire.rejects_per_op": (
        "wire", "counters wire.reject.*", ("ops_per_s", "chat")),
    "crypto.rsa.private_per_op": (
        "crypto", "counter crypto.rsa.private_op", ("p50_ms", "join")),
    "crypto.rsa.public_per_op": (
        "crypto", "counter crypto.rsa.public_op", ("p50_ms", "join")),
    "crypto.rsa.verify_per_op": (
        "crypto", "counter crypto.rsa.verify_op", ("p50_ms", "e2_sweep")),
    "crypto.rsa.ms_per_op": (
        "crypto", "self time in PrivateKey.decrypt_int, PublicKey.encrypt_int/"
                  "verify_int", ("p50_ms", "join")),
    "crypto.aead.ms_per_op": (
        "crypto", "self time in aead.seal/open_", ("p50_ms", "e2_sweep")),
    "crypto.aead.bytes_per_op": (
        "crypto", "bytes passed to aead.seal/open_", ("p50_ms", "e2_sweep")),
    "crypto.construct.ms_per_op": (
        "crypto", "self time in envelope, signing, resume, groupkey and dsig "
                  "(padding, hashing, encoding around the primitives)",
        ("p50_ms", "e2_sweep")),
    "crypto.envelope.calls_per_op": (
        "crypto", "calls to envelope.seal/seal_many/open_/open_detailed",
        ("p50_ms", "e2_sweep")),
    "crypto.signing.calls_per_op": (
        "crypto", "calls to signing.sign/verify", ("p50_ms", "join")),
    "crypto.resume.calls_per_op": (
        "crypto", "calls to resume.seal_resumed/open_resumed", ("p50_ms", "chat")),
    "crypto.groupkey.calls_per_op": (
        "crypto", "calls to groupkey.seal_epoch/open_epoch/GroupKeyRing.open",
        ("p50_ms", "group_cast")),
    "crypto.sigcache.hits_per_op": (
        "crypto", "counter crypto.sigcache.hits", ("p50_ms", "join")),
    "crypto.sigcache.misses_per_op": (
        "crypto", "counter crypto.sigcache.misses", ("p50_ms", "join")),
    "dsig.calls_per_op": (
        "dsig", "calls to dsig sign_element/verify_element", ("p50_ms", "join")),
    "core.ms_per_op": (
        "core", "self time in secure_connect, secure_login, secure_msg_peer, "
                "secure_msg_peer_group", ("p50_ms", "chat")),
    "overlay.groupcast.delivered_per_op": (
        "overlay", "counter groupcast.delivered", ("ops_per_s", "group_cast")),
    "overlay.groupcast.relayed_per_op": (
        "overlay", "counter groupcast.relayed", ("cpu_ms_per_op", "group_cast")),
    "obs.registry.calls_per_op": (
        "obs", "calls to Registry.incr/observe/set_gauge and interned "
               "instruments", ("cpu_ms_per_op", "chat")),
    **{f"proc.cpu_share.{role}": (
        "proc", f"getrusage CPU of the {role} processes over all processes",
        ("cpu_ms_per_op", "group_cast")) for role in ROLES},
    **{f"proc.busy_frac.{role}": (
        "proc", f"CPU over wall time of the {role} processes",
        ("p50_ms", "group_cast")) for role in ROLES},
    **{f"proc.rss_mib.{role}": (
        "proc", f"ru_maxrss of the {role} processes after warm-up",
        ("peak_rss_mib", "chat")) for role in ROLES},
}

@functools.cache
def layer_metrics() -> tuple[Metric, ...]:
    """The per-layer metrics, with their layer, source and moves pair."""
    return tuple(
        Metric(**m, **dict(zip(("layer", "source", "moves"), _LAYERS[m["name"]])))
        for m in benchmark()["per_layer"])


@dataclass(frozen=True)
class Plan:
    """Everything a child process needs to build its part of the world."""

    workload: str
    seed: int
    role: str
    index: int = 0
    trace: bool = False
    #: the parent's time.monotonic() origin every WallClock is pinned to
    origin: float = 0.0
    #: where traced processes write their span files
    trace_dir: str = ""
