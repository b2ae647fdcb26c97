"""The paper's experiments (E1, E2), the DESIGN.md ablations (A1-A4)
and E-OBS.

Every function returns plain data structures; ``repro.bench.report``
renders them as the tables/series the paper prints, and
:mod:`repro.bench.evaluation` shapes them as the experiment-table
documents.  Every secure measurement runs the paper's stateless path
(:func:`stateless`) and records, next to its virtual time, the work one
operation did (``*_work``: frames, bytes, RSA and envelope/resume
counts).  See DESIGN.md section 4 for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass, field

from repro.bench import fixtures
from repro.bench.tls_cbjx import CbjxEchoPair, TlsClientDriver, TlsRecordServer
from repro.bench.timing import (
    fresh_registry,
    mean_total,
    overhead_pct,
    repeat_timed,
    timed_call,
    work_per_op,
)
from repro.core.policy import DEFAULT_POLICY, SecurityPolicy
from repro.crypto import envelope, pkcs1, signing
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.drbg import HmacDrbg
from repro.crypto.modes import CBC
from repro.crypto.sha2 import sha256
from repro.jxta.ids import cbid_from_key, matches_key
from repro.sim.latency import LAN_2009, LinkModel

#: the value reported in §5 for the secureConnection+secureLogin overhead
PAPER_JOIN_OVERHEAD_PCT = 81.76


def stateless(policy: SecurityPolicy) -> SecurityPolicy:
    """The paper's stateless secure path under *policy*.

    §4.3's secureMsgPeer signs and seals every message afresh, so the
    resumption and seal-many fast paths are switched off whatever
    *policy* says (E-MSGFAST measures those).  Every §5 measurement
    chooses its policy here.
    """
    return policy.with_(enable_resumption=False, enable_seal_many=False)


# ===========================================================================
# E1 — join overhead (§5, "81.76%")
# ===========================================================================

@dataclass
class JoinOverheadResult:
    plain_s: float
    secure_s: float
    overhead_pct: float
    paper_overhead_pct: float = PAPER_JOIN_OVERHEAD_PCT
    link_name: str = "lan2009"
    cpu_scale: float = 1.0
    rsa_bits: int = 1024
    plain_work: dict[str, float] = field(default_factory=dict)
    secure_work: dict[str, float] = field(default_factory=dict)


@fresh_registry()
def join_overhead(policy: SecurityPolicy = DEFAULT_POLICY,
                  link: LinkModel = LAN_2009, link_name: str = "lan2009",
                  repeats: int = 3, cpu_scale: float = 1.0) -> JoinOverheadResult:
    """E1: time to join the network, plain connect+login vs
    secureConnection+secureLogin.

    Every repetition builds a fresh world (joins are one-shot by nature);
    key generation is excluded via cached keys, matching the paper's setup
    where keys exist before the join is timed.
    """
    policy = stateless(policy)
    plain_times = []
    secure_times = []
    for r in range(repeats):
        net, broker, clients = fixtures.build_plain_world(
            n_clients=1, link=link, seed=b"e1-plain-%d" % r)
        client = clients[0]

        def plain_join():
            client.connect("broker:0")
            client.login("user0", "pw0")

        plain_times.append(timed_call(net, plain_join, cpu_scale))

        snet, admin, sbroker, sclients = fixtures.build_secure_world(
            n_clients=1, link=link, policy=policy, seed=b"e1-sec-%d" % r)
        sclient = sclients[0]

        def secure_join():
            sclient.secure_connect("broker:0")
            sclient.secure_login("user0", "pw0")

        secure_times.append(timed_call(snet, secure_join, cpu_scale))

    plain_s = mean_total(plain_times)
    secure_s = mean_total(secure_times)
    return JoinOverheadResult(
        plain_s=plain_s, secure_s=secure_s,
        overhead_pct=overhead_pct(secure_s, plain_s),
        link_name=link_name, cpu_scale=cpu_scale, rsa_bits=policy.rsa_bits,
        plain_work=work_per_op(plain_times),
        secure_work=work_per_op(secure_times))


# ===========================================================================
# E2 — Figure 2: secureMsgPeer overhead vs data length
# ===========================================================================

@dataclass
class MsgOverheadPoint:
    size_bytes: int
    plain_s: float
    secure_s: float
    overhead_pct: float
    plain_work: dict[str, float] = field(default_factory=dict)
    secure_work: dict[str, float] = field(default_factory=dict)


@dataclass
class MsgOverheadCurve:
    points: list[MsgOverheadPoint] = field(default_factory=list)
    link_name: str = "lan2009"
    cpu_scale: float = 1.0
    rsa_bits: int = 1024

    def monotone_decreasing_tail(self) -> bool:
        """Figure 2's qualitative claim: overhead falls as size grows."""
        pct = [p.overhead_pct for p in self.points]
        return all(b <= a * 1.10 for a, b in zip(pct, pct[1:])) and pct[-1] < pct[0]


DEFAULT_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)


@fresh_registry()
def msg_overhead_curve(sizes: tuple[int, ...] = DEFAULT_SIZES,
                       policy: SecurityPolicy = DEFAULT_POLICY,
                       link: LinkModel = LAN_2009, link_name: str = "lan2009",
                       repeats: int = 3, cpu_scale: float = 1.0) -> MsgOverheadCurve:
    """E2: plain sendMsgPeer vs secureMsgPeer across message sizes.

    One warmed-up world per variant; the secure path is measured in its
    steady state (advertisements validated and cached), matching a running
    chat session — the scenario Figure 2 describes.
    """
    policy = stateless(policy)
    net, broker, clients = fixtures.build_plain_world(
        n_clients=2, link=link, seed=b"e2-plain")
    fixtures.join_plain(clients)
    alice, bob = clients

    snet, admin, sbroker, sclients = fixtures.build_secure_world(
        n_clients=2, link=link, policy=policy, seed=b"e2-sec", joined=True)
    salice, sbob = sclients

    curve = MsgOverheadCurve(link_name=link_name, cpu_scale=cpu_scale,
                             rsa_bits=policy.rsa_bits)
    for size in sizes:
        text = "x" * size
        plain = repeat_timed(
            net, lambda: alice.send_msg_peer(str(bob.peer_id), "bench", text),
            repeats=repeats, cpu_scale=cpu_scale)
        secure = repeat_timed(
            snet, lambda: salice.secure_msg_peer(str(sbob.peer_id), "bench", text),
            repeats=repeats, cpu_scale=cpu_scale)
        plain_s = mean_total(plain)
        secure_s = mean_total(secure)
        curve.points.append(MsgOverheadPoint(
            size_bytes=size, plain_s=plain_s, secure_s=secure_s,
            overhead_pct=overhead_pct(secure_s, plain_s),
            plain_work=work_per_op(plain), secure_work=work_per_op(secure)))
    return curve


# ===========================================================================
# A1 — crypto micro-costs (the primitives E1/E2 are built from)
# ===========================================================================

def _best_us(fn, rounds: int) -> float:
    """Best-of-*rounds* microseconds per call, each round at least ~2 ms."""
    timer = timeit.Timer(fn)
    number = max(1, int(2e-3 / max(timer.timeit(1), 1e-7)))
    return round(min(timer.repeat(rounds, number)) / number * 1e6, 3)


def crypto_costs(rounds: int = 5) -> dict[str, float]:
    """A1: microseconds per call of each primitive the secure path uses,
    on 1 kB inputs.

    Includes DESIGN.md §5 decision 3: a CBID match (hash of the key,
    compared with the id) against the RSA verify it lets callers skip.
    """
    kp1024 = fixtures.cached_keypair(1024, "a1")
    kp2048 = fixtures.cached_keypair(2048, "a1")
    drbg = HmacDrbg(b"a1")
    data = b"m" * 1_024
    sig1024 = signing.sign(kp1024.private, data, drbg=drbg)
    sig2048 = signing.sign(kp2048.private, data, drbg=drbg)
    wrapped = pkcs1.encrypt_oaep(kp1024.public, b"k" * 32, drbg=drbg)
    sealed = envelope.seal(kp1024.public, data, drbg=drbg)
    cbid = cbid_from_key(kp1024.public)
    cbc = CBC(b"k" * 16)
    ops = {
        "rsa1024_sign": lambda: signing.sign(kp1024.private, data, drbg=drbg),
        "rsa1024_verify": lambda: signing.verify(kp1024.public, data, sig1024),
        "rsa2048_sign": lambda: signing.sign(kp2048.private, data, drbg=drbg),
        "rsa2048_verify": lambda: signing.verify(kp2048.public, data, sig2048),
        "rsa1024_oaep_wrap": lambda: pkcs1.encrypt_oaep(
            kp1024.public, b"k" * 32, drbg=drbg),
        "rsa1024_oaep_unwrap": lambda: pkcs1.decrypt_oaep(
            kp1024.private, wrapped),
        "chacha20": lambda: chacha20_xor(b"k" * 32, b"n" * 12, data),
        "aes128_cbc": lambda: cbc.encrypt(data, b"i" * 16),
        "sha256": lambda: sha256(data),
        "envelope_seal": lambda: envelope.seal(kp1024.public, data, drbg=drbg),
        "envelope_open": lambda: envelope.open_(kp1024.private, sealed),
        "cbid_match": lambda: matches_key(cbid, kp1024.public),
    }
    return {name: _best_us(fn, rounds) for name, fn in ops.items()}


# ===========================================================================
# A3 — secureMsgPeerGroup scaling with group size
# ===========================================================================

@dataclass
class GroupScalePoint:
    group_size: int
    plain_s: float
    secure_s: float
    overhead_pct: float
    plain_work: dict[str, float] = field(default_factory=dict)
    secure_work: dict[str, float] = field(default_factory=dict)


@fresh_registry()
def group_scaling(group_sizes: tuple[int, ...] = (2, 4, 8, 16),
                  policy: SecurityPolicy = DEFAULT_POLICY,
                  link: LinkModel = LAN_2009, cpu_scale: float = 1.0,
                  text: str = "hello group") -> list[GroupScalePoint]:
    """A3: sendMsgPeerGroup vs secureMsgPeerGroup as members grow.

    Both are linear in group size by construction (iterated peer sends,
    §4.3.1); the interesting output is the per-member secure cost.
    """
    policy = stateless(policy)
    out = []
    for n in group_sizes:
        net, broker, clients = fixtures.build_plain_world(
            n_clients=n, link=link, seed=b"a3-plain-%d" % n)
        fixtures.join_plain(clients)
        sender = clients[0]
        plain = repeat_timed(
            net, lambda: sender.send_msg_peer_group("bench", text),
            repeats=2, cpu_scale=cpu_scale)

        snet, admin, sbroker, sclients = fixtures.build_secure_world(
            n_clients=n, link=link, policy=policy,
            seed=b"a3-sec-%d" % n, joined=True)
        ssender = sclients[0]
        secure = repeat_timed(
            snet, lambda: ssender.secure_msg_peer_group("bench", text),
            repeats=2, cpu_scale=cpu_scale)
        plain_s = mean_total(plain)
        secure_s = mean_total(secure)
        out.append(GroupScalePoint(
            group_size=n, plain_s=plain_s, secure_s=secure_s,
            overhead_pct=overhead_pct(secure_s, plain_s),
            plain_work=work_per_op(plain), secure_work=work_per_op(secure)))
    return out


# ===========================================================================
# A4 — stateless secure messaging vs TLS channel vs CBJX
# ===========================================================================

@dataclass
class BaselineComparisonPoint:
    n_messages: int
    stateless_s: float      # paper's secureMsgPeer, per conversation
    tls_s: float            # handshake + one-way records
    cbjx_s: float           # per-message signed encapsulation
    # work per message of the conversation (TLS: handshake amortised)
    stateless_work: dict[str, float] = field(default_factory=dict)
    tls_work: dict[str, float] = field(default_factory=dict)
    cbjx_work: dict[str, float] = field(default_factory=dict)


@fresh_registry()
def baseline_comparison(message_counts: tuple[int, ...] = (1, 2, 5, 10, 50),
                        size_bytes: int = 1_000,
                        policy: SecurityPolicy = DEFAULT_POLICY,
                        link: LinkModel = LAN_2009,
                        cpu_scale: float = 1.0) -> list[BaselineComparisonPoint]:
    """A4: total cost of an N-message conversation under each mechanism.

    TLS pays a handshake once then cheap symmetric records; the stateless
    scheme pays asymmetric crypto per message; CBJX signs per message but
    does not encrypt.  Every mechanism delivers each message one way.
    The crossover N is the design trade-off §4.3 talks about.
    """
    policy = stateless(policy)
    text = "y" * size_bytes
    payload = text.encode()
    out = []
    for n in message_counts:
        # stateless secure primitives
        snet, admin, sbroker, sclients = fixtures.build_secure_world(
            n_clients=2, link=link, policy=policy,
            seed=b"a4-sec-%d" % n, joined=True)
        salice, sbob = sclients
        salice.secure_msg_peer(str(sbob.peer_id), "bench", "warmup")

        def stateless_run():
            for _ in range(n):
                salice.secure_msg_peer(str(sbob.peer_id), "bench", text)

        stateless_t = timed_call(snet, stateless_run, cpu_scale)

        # TLS channel, handshake included
        tnet = fixtures.fresh_network(link)
        # OAEP-wrapping the 48-byte premaster needs >= 1024-bit moduli
        server_keys = fixtures.cached_keypair(max(1024, policy.rsa_bits),
                                              "tls-server")
        TlsRecordServer(tnet, "srv", server_keys, HmacDrbg(b"a4-tls-s-%d" % n))
        driver = TlsClientDriver(tnet, "cli", "srv", HmacDrbg(b"a4-tls-c-%d" % n))

        def tls_run():
            driver.handshake()
            for _ in range(n):
                driver.send(payload)

        tls = timed_call(tnet, tls_run, cpu_scale)

        # CBJX datagrams
        cnet = fixtures.fresh_network(link)
        pair = CbjxEchoPair(
            cnet, "a", "b",
            fixtures.cached_keypair(policy.rsa_bits, "cbjx-a"),
            fixtures.cached_keypair(policy.rsa_bits, "cbjx-b"),
            HmacDrbg(b"a4-cbjx-%d" % n))

        def cbjx_run():
            for _ in range(n):
                pair.send_a_to_b(payload)

        cbjx = timed_call(cnet, cbjx_run, cpu_scale)

        out.append(BaselineComparisonPoint(
            n_messages=n, stateless_s=stateless_t.total_s,
            tls_s=tls.total_s, cbjx_s=cbjx.total_s,
            stateless_work=work_per_op([stateless_t], n),
            tls_work=work_per_op([tls], n),
            cbjx_work=work_per_op([cbjx], n)))
    return out


# ===========================================================================
# E-OBS — per-primitive distributions from the observability registry
# ===========================================================================

#: paper primitive name -> the Client Module method the decorator records
OBS_PRIMITIVES: dict[str, str] = {
    "secureConnection": "secure_connect",
    "secureLogin": "secure_login",
    "secureMsgPeer": "secure_msg_peer",
}


def obs_bench(repeats: int = 5, policy: SecurityPolicy = DEFAULT_POLICY,
              link: LinkModel = LAN_2009, link_name: str = "lan2009",
              msg_size: int = 1_000) -> dict:
    """E-OBS: run the secure join + messaging workload under a fresh,
    enabled observability registry and report the captured distributions.

    Each repeat builds a fresh secure world and performs two full joins
    (secureConnection + secureLogin per client) plus ``repeats`` calls of
    secureMsgPeer; the swapped-in registry sees only this workload, so
    the percentiles are clean per-primitive distributions: per paper
    primitive, latency (p50/p95) and byte/frame distributions, plus
    every protocol-phase span histogram and the raw counter/gauge maps.
    """
    policy = stateless(policy)
    text = "x" * msg_size
    with fresh_registry() as registry:
        for r in range(repeats):
            net, admin, broker, clients = fixtures.build_secure_world(
                n_clients=2, link=link, policy=policy,
                seed=b"e-obs-%d" % r, joined=True)
            c0, c1 = clients
            for _ in range(repeats):
                c0.secure_msg_peer(str(c1.peer_id), "bench", text)
    snap = registry.snapshot()
    primitives = {}
    for paper_name, prim in OBS_PRIMITIVES.items():
        primitives[paper_name] = {
            "calls": snap["counters"].get(f"overlay.{prim}.calls", 0),
            "errors": snap["counters"].get(f"overlay.{prim}.errors", 0),
            "latency_ms": snap["histograms"].get(f"overlay.{prim}.latency_ms", {}),
            "bytes_sent": snap["histograms"].get(f"overlay.{prim}.bytes_sent", {}),
            "frames_sent": snap["histograms"].get(f"overlay.{prim}.frames_sent", {}),
        }
    return {
        "meta": {
            "experiment": "obs_bench",
            "repeats": repeats,
            "rsa_bits": policy.rsa_bits,
            "link": link_name,
            "msg_size_bytes": msg_size,
        },
        "primitives": primitives,
        "spans": {name: summary
                  for name, summary in snap["histograms"].items()
                  if name.startswith("span.")},
        "counters": snap["counters"],
        "gauges": snap["gauges"],
    }


# ===========================================================================
# A2 — policy ablation on E1/E2
# ===========================================================================

@dataclass
class PolicyAblationRow:
    label: str
    rsa_bits: int
    suite: str
    join_secure_s: float
    msg_secure_s: float
    join_work: dict[str, float] = field(default_factory=dict)
    msg_work: dict[str, float] = field(default_factory=dict)


@fresh_registry()
def policy_ablation(policies: dict[str, SecurityPolicy] | None = None,
                    msg_size: int = 10_000,
                    link: LinkModel = LAN_2009,
                    cpu_scale: float = 1.0) -> list[PolicyAblationRow]:
    """A2: how key size / cipher suite choices move the secure costs."""
    if policies is None:
        policies = {
            "rsa1024+chacha(oaep)": SecurityPolicy(rsa_bits=1024),
            "rsa1024+aes-cbc(v1.5)": SecurityPolicy(
                rsa_bits=1024, envelope_suite="aes128-cbc",
                envelope_wrap=envelope.WRAP_V15,
                signature_scheme="rsa-pkcs1v15-sha256"),
            "rsa2048+chacha(oaep)": SecurityPolicy(rsa_bits=2048),
        }
    rows = []
    for label, policy in policies.items():
        policy = stateless(policy)
        net, admin, broker, clients = fixtures.build_secure_world(
            n_clients=2, link=link, policy=policy,
            seed=b"a2-" + label.encode())
        c0, c1 = clients

        def join():
            c0.secure_connect("broker:0")
            c0.secure_login("user0", "pw0")

        join_t = timed_call(net, join, cpu_scale)
        c1.secure_connect("broker:0")
        c1.secure_login("user1", "pw1")
        text = "z" * msg_size
        msg = repeat_timed(
            net, lambda: c0.secure_msg_peer(str(c1.peer_id), "bench", text),
            repeats=3, cpu_scale=cpu_scale)
        rows.append(PolicyAblationRow(
            label=label, rsa_bits=policy.rsa_bits,
            suite=policy.envelope_suite,
            join_secure_s=join_t.total_s,
            msg_secure_s=mean_total(msg),
            join_work=work_per_op([join_t]), msg_work=work_per_op(msg)))
    return rows
