"""The deployment: brokers, the receiving sink and the load driver.

Each role is built on whatever transport it is given, so the same code
runs in three separate processes over ``TcpTransport`` and, for the
simulator's prediction, in one process over ``SimTransport``.  Only the
program's public API is used.

Output checks live here too.  Every message text is
``"<op id>|<digest>|<body>"`` with a body drawn from a seeded pool; the
receiving member checks the digest, the body and the sender, and reports
``(op id, member, receive time, verdict)`` back to the driver, which
treats an operation as complete only when every expected member has
reported.  A join must return a credential for the right subject.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import random
import threading
import time
from dataclasses import dataclass, field

from benchmarks.e2e import spec

OK, BAD_PAYLOAD, DUPLICATE, WRONG_SENDER = 0, 1, 2, 3


def password(user: str) -> str:
    return f"pw-{user}"


def peer_address(user: str) -> str:
    return f"peer:{user}"


# -- payloads ---------------------------------------------------------------


def digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:spec.DIGEST_WIDTH]


def payload_pools(seed: int, sizes) -> dict[int, list[str]]:
    """Seeded message bodies, ``spec.PAYLOAD_POOL`` per text size."""
    pools = {}
    for size in sizes:
        rng = random.Random(f"e2e-payload|{seed}|{size}")
        body_len = size - spec.HEADER_LEN
        pools[size] = [
            base64.b64encode(rng.randbytes(body_len)).decode("ascii")[:body_len]
            for _ in range(spec.PAYLOAD_POOL)]
    return pools


def make_text(op: int, pools: dict[int, list[str]], size: int) -> str:
    body = pools[size][op % spec.PAYLOAD_POOL]
    return f"{op:0{spec.OP_ID_WIDTH}d}|{digest(body)}|{body}"


def check_text(text: str, pools: dict[int, list[str]]) -> tuple[int, int]:
    """(op id, verdict) for a received message text."""
    try:
        op_text, claimed, body = text.split("|", 2)
        op = int(op_text)
    except ValueError:
        return -1, BAD_PAYLOAD
    pool = pools.get(len(text))
    if (pool is None or claimed != digest(body)
            or body != pool[op % spec.PAYLOAD_POOL]):
        return op, BAD_PAYLOAD
    return op, OK


# -- provisioning -----------------------------------------------------------


class Provision:
    """The deterministic offline set-up every process repeats.

    The administrator key, its self-signed credential and the user
    database are identical in every process because every draw comes
    from a DRBG keyed by ``(workload, seed, label)`` — independent of
    the order in which a process asks for them.
    """

    def __init__(self, workload: spec.Workload, seed: int) -> None:
        from repro.core import DEFAULT_POLICY, Administrator

        self.workload = workload
        self.seed = seed
        self._prefix = f"e2e|{workload.name}|{seed}|".encode()
        self.policy = DEFAULT_POLICY.with_(**workload.policy)
        self.admin = Administrator(self.drbg("admin"),
                                   keys=self.keypair("admin"))
        for user in workload.users:
            self.admin.register_user(user, password(user), {workload.group})

    def drbg(self, label: str):
        from repro.crypto.drbg import HmacDrbg

        return HmacDrbg(self._prefix + label.encode())

    def keypair(self, label: str):
        from repro.crypto.rsa import generate_keypair

        return generate_keypair(self.policy.rsa_bits,
                                drbg=self.drbg("keys|" + label))

    def secure_peer(self, net, user: str):
        from repro.core import SecureClientPeer
        from repro.core.keystore import Keystore

        address = peer_address(user)
        return SecureClientPeer(
            net, address, self.drbg(address), self.admin.credential,
            name=user, policy=self.policy,
            keystore=Keystore(self.keypair(address)))

    def plain_peer(self, net, user: str):
        from repro.overlay import ClientPeer

        address = peer_address(user)
        return ClientPeer(net, address, self.drbg(address), name=user)


class Role:
    """Common surface of the three roles."""

    nodes: list

    def addresses(self) -> list[str]:
        return [node.address for node in self.nodes]

    def info(self) -> dict:
        return {"peers": {node.name: str(node.peer_id) for node in self.nodes}}

    def close(self) -> None:
        for node in self.nodes:
            node.control.close()


class BrokerRole(Role):
    def __init__(self, prov: Provision, net, index: int) -> None:
        from repro.core import SecureBroker
        from repro.overlay import Broker

        self.index = index
        self.workload = prov.workload
        address = f"broker:{index}"
        self.nodes = [SecureBroker.create(
            net, address, prov.admin, prov.drbg(address), name=f"B{index}",
            policy=prov.policy, keys=prov.keypair(address))]
        if index == 0 and self.workload.plain_callers:
            self.nodes.append(Broker(net, spec.PLAIN_BROKER,
                                     prov.admin.database,
                                     prov.drbg(spec.PLAIN_BROKER),
                                     name="plain"))

    def link(self) -> None:
        """Broker 0 federates with every other broker."""
        if self.index == 0:
            for other in range(1, self.workload.brokers):
                self.nodes[0].link_broker(f"broker:{other}")


class SinkRole(Role):
    """Receiving members; reports every delivery through ``notify``."""

    def __init__(self, prov: Provision, net, notify, clock_ns) -> None:
        self.workload = prov.workload
        self.members = [*self.workload.members, *self.workload.plain_members]
        self.nodes = [prov.secure_peer(net, m.user) if m.secure
                      else prov.plain_peer(net, m.user) for m in self.members]
        self.pools = payload_pools(prov.seed, self.workload.sizes)
        self._notify = notify
        self._clock_ns = clock_ns
        self._lock = threading.Lock()
        self._seen: set[tuple[int, int]] = set()
        self.rejected = 0
        #: per observer: peer_joined / peer_left events about driver callers
        self.joined = [0] * len(self.members)
        self.left = [0] * len(self.members)
        self.caller_peers: set[str] = set()
        for index, (member, node) in enumerate(zip(self.members, self.nodes)):
            event = ("secure_message_received" if member.secure
                     else "message_received")
            node.events.subscribe(event, self._receiver(index))
            node.events.subscribe("peer_joined_group", self._observer(index, self.joined))
            node.events.subscribe("peer_left_group", self._observer(index, self.left))
            node.events.subscribe("message_rejected", self._on_reject)

    def _receiver(self, index: int):
        member = self.members[index]

        def on_message(*, from_user, text, **_):
            received = self._clock_ns()
            op, verdict = check_text(text, self.pools)
            if verdict == OK and from_user != member.sender:
                verdict = WRONG_SENDER
            with self._lock:
                if (index, op) in self._seen:
                    verdict = DUPLICATE
                self._seen.add((index, op))
            self._notify(op, index, received, verdict)

        return on_message

    def _observer(self, index: int, counts: list[int]):
        def on_event(*, peer_id, **_):
            if peer_id in self.caller_peers:
                with self._lock:
                    counts[index] += 1

        return on_event

    def _on_reject(self, **_) -> None:
        with self._lock:
            self.rejected += 1

    def login(self) -> None:
        for member, node in zip(self.members, self.nodes):
            if member.secure:
                node.secure_connect(member.home)
                node.secure_login(member.user, password(member.user))
                if self.workload.kind == "cast":
                    node.secure_join_group(self.workload.group)
            else:
                node.connect(member.home)
                node.login(member.user, password(member.user))

    def check_observers(self, expect_joins: int, expect_leaves: int) -> list[str]:
        """Every secure observer saw each driver join and leave once."""
        observers = [i for i, m in enumerate(self.members)
                     if m.sender is None and m.secure]
        deadline = time.monotonic() + spec.DEADLINE_S
        while time.monotonic() < deadline:
            with self._lock:
                if all(self.joined[i] >= expect_joins
                       and self.left[i] >= expect_leaves for i in observers):
                    break
            time.sleep(0.01)
        problems = []
        with self._lock:
            for i in observers:
                if (self.joined[i], self.left[i]) != (expect_joins, expect_leaves):
                    problems.append(
                        f"{self.members[i].user} saw {self.joined[i]} joins / "
                        f"{self.left[i]} leaves, expected {expect_joins} / "
                        f"{expect_leaves}")
        return problems

    def logout(self) -> None:
        for node in self.nodes:
            if node.username is not None:
                node.logout()


@dataclass
class _Wait:
    needed: int
    event: threading.Event = field(default_factory=threading.Event)
    members: set = field(default_factory=set)
    last_ns: int = 0
    bad: int = 0


class Completions:
    """Matches delivery reports from the sink to waiting operations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiting: dict[int, _Wait] = {}
        self.wrong = 0
        self.late = 0

    def expect(self, op: int, needed: int) -> _Wait:
        wait = _Wait(needed)
        with self._lock:
            self._waiting[op] = wait
        return wait

    def forget(self, op: int) -> None:
        with self._lock:
            self._waiting.pop(op, None)

    def notify(self, op: int, member: int, received_ns: int, verdict: int) -> None:
        with self._lock:
            wait = self._waiting.get(op)
            if wait is None:
                self.late += 1
                if verdict != OK:
                    self.wrong += 1
                return
            if verdict != OK or member in wait.members:
                wait.bad += 1
            wait.members.add(member)
            wait.last_ns = max(wait.last_ns, received_ns)
            if len(wait.members) >= wait.needed:
                del self._waiting[op]
                wait.event.set()


@dataclass
class OpResult:
    start_ns: int
    end_ns: int
    ok: bool = True
    wrong: int = 0
    error: str = ""
    #: (text size, latency ns) per message of a sweep round
    sizes: list = field(default_factory=list)

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns


class DriverRole(Role):
    """The closed-loop callers; the only source of load."""

    def __init__(self, prov: Provision, net, completions: Completions,
                 clock_ns) -> None:
        self.workload = prov.workload
        self.callers = list(self.workload.callers)
        self.plain_callers = list(self.workload.plain_callers)
        self.nodes = [prov.secure_peer(net, c.user) for c in self.callers]
        self.plain_nodes = [prov.plain_peer(net, c.user)
                            for c in self.plain_callers]
        self.pools = payload_pools(prov.seed, self.workload.sizes)
        self.completions = completions
        self._clock_ns = clock_ns
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self.targets: dict[str, str] = {}
        self.rejected = 0
        #: secure logins/logouts completed (observers must see each one)
        self.logins = 0
        self.logouts = 0
        self._count_lock = threading.Lock()
        for node in (*self.nodes, *self.plain_nodes):
            node.events.subscribe("message_rejected", self._on_reject)

    def _on_reject(self, **_) -> None:
        with self._count_lock:
            self.rejected += 1

    def addresses(self) -> list[str]:
        return [node.address for node in (*self.nodes, *self.plain_nodes)]

    def close(self) -> None:
        for node in (*self.nodes, *self.plain_nodes):
            node.control.close()

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    # -- set-up -------------------------------------------------------------

    def login(self, member_peers: dict[str, str]) -> None:
        """Log the messaging callers in, then warm every caller up."""
        self.targets = dict(member_peers)
        kind = self.workload.kind
        if kind != "join":
            for caller, node in zip(self.callers, self.nodes):
                node.secure_connect(caller.home)
                node.secure_login(caller.user, password(caller.user))
                if kind == "cast":
                    node.secure_join_group(self.workload.group)
        for caller, node in zip(self.plain_callers, self.plain_nodes):
            if kind != "join":
                node.connect(caller.home)
                node.login(caller.user, password(caller.user))
        warm = self.loop(self.one_op, len(self.callers),
                         ops=spec.WARMUP_OPS[self.workload.name])
        bad = [r for results in warm for r in results if not r.ok or r.wrong]
        if bad:
            raise RuntimeError(f"warm-up failed: {bad[0]}")

    def logout(self) -> None:
        for node in (*self.nodes, *self.plain_nodes):
            if node.username is not None:
                node.logout()

    # -- operations ---------------------------------------------------------

    def one_op(self, index: int) -> OpResult:
        """One operation of the workload by caller ``index``."""
        start = self._clock_ns()
        try:
            kind = self.workload.kind
            if kind == "join":
                result = self._join(index)
            elif kind == "msg":
                result = self._round(index, self.nodes[index],
                                     self.callers[index], secure=True)
            else:
                result = self._cast(index)
        except Exception as exc:  # one failed operation must not stop the loop
            return OpResult(start, self._clock_ns(), ok=False,
                            error=f"{type(exc).__name__}: {exc}")
        if result.ok and result.latency_ns > spec.DEADLINE_S * 1e9:
            result.ok = False
            result.error = "deadline exceeded"
        return result

    def one_plain_op(self, index: int) -> OpResult:
        start = self._clock_ns()
        try:
            if self.workload.kind == "join":
                return self._plain_join(index)
            return self._round(index, self.plain_nodes[index],
                               self.plain_callers[index], secure=False)
        except Exception as exc:
            return OpResult(start, self._clock_ns(), ok=False,
                            error=f"{type(exc).__name__}: {exc}")

    def _join(self, index: int) -> OpResult:
        caller, node = self.callers[index], self.nodes[index]
        start = self._clock_ns()
        node.secure_connect(caller.home)
        groups = node.secure_login(caller.user, password(caller.user))
        end = self._clock_ns()
        with self._count_lock:
            self.logins += 1
        credential = node.keystore.credential
        wrong = int(credential.subject_name != caller.user
                    or credential.public_key != node.keystore.keys.public
                    or list(groups) != [self.workload.group])
        node.logout()
        with self._count_lock:
            self.logouts += 1
        return OpResult(start, end, wrong=wrong)

    def _plain_join(self, index: int) -> OpResult:
        caller, node = self.plain_callers[index], self.plain_nodes[index]
        start = self._clock_ns()
        node.connect(caller.home)
        groups = node.login(caller.user, password(caller.user))
        end = self._clock_ns()
        node.logout()
        return OpResult(start, end, wrong=int(list(groups) != [self.workload.group]))

    def _round(self, index: int, node, caller: spec.Caller,
               secure: bool) -> OpResult:
        """One message per size, each awaited at the receiver."""
        target = self.targets[caller.target]
        group = self.workload.group
        result = OpResult(0, 0)
        for size in self.workload.sizes:
            op = self._next_id()
            wait = self.completions.expect(op, 1)
            text = make_text(op, self.pools, size)
            sent = self._clock_ns()
            if not result.start_ns:
                result.start_ns = sent
            if secure:
                delivered = node.secure_msg_peer(target, group, text)
            else:
                delivered = node.send_msg_peer(target, group, text).ok
            if not delivered or not wait.event.wait(spec.DEADLINE_S):
                self.completions.forget(op)
                result.ok = False
                result.error = "not delivered" if not delivered else "timed out"
                result.end_ns = self._clock_ns()
                return result
            result.wrong += wait.bad
            result.sizes.append((size, wait.last_ns - sent))
            result.end_ns = wait.last_ns
        return result

    def _cast(self, index: int) -> OpResult:
        node = self.nodes[index]
        members = self.workload.members
        local = sum(1 for m in members if m.home == self.callers[index].home)
        op = self._next_id()
        wait = self.completions.expect(op, len(members))
        text = make_text(op, self.pools, self.workload.sizes[0])
        sent = self._clock_ns()
        delivered = node.secure_msg_peer_group(self.workload.group, text)
        if not wait.event.wait(spec.DEADLINE_S):
            self.completions.forget(op)
            return OpResult(sent, self._clock_ns(), ok=False,
                            error=f"{len(wait.members)}/{len(members)} "
                                  f"members reached")
        return OpResult(sent, wait.last_ns,
                        wrong=wait.bad + int(delivered != local))

    # -- closed loops -------------------------------------------------------

    def loop(self, op, n: int, *, ops: int | None = None,
             until_ns: int | None = None) -> list[list[OpResult]]:
        """Run ``op`` in ``n`` concurrent closed loops, one per caller.

        Each caller starts its next operation only after the previous
        one completed.  Stops after ``ops`` operations per caller or at
        ``until_ns``, whichever is given.
        """
        results: list[list[OpResult]] = [[] for _ in range(n)]

        def run(index: int) -> None:
            out = results[index]
            while True:
                if ops is not None and len(out) >= ops:
                    return
                if until_ns is not None and self._clock_ns() >= until_ns:
                    return
                out.append(op(index))

        threads = [threading.Thread(target=run, args=(i,), name=f"caller-{i}")
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results
