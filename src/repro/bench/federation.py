"""E-FED: sharded broker federation under load, faults, and rogues.

Four questions, one document (``BENCH_FED.json``):

* **Shard balance** — with B federated brokers, how evenly does the
  consistent-hash ring spread the resource index?  Each broker's owned
  share is reported as a ratio against the ideal ``total / B``; the
  4-broker cell must keep every ratio inside ``SHARE_RATIO_BAND``.
  (With 128 virtual nodes per broker and a few dozen shard keys the
  spread is deterministic but not exact — the band documents the
  imbalance tolerance the deployment accepts.)
* **Redirect cost** — keyed lookups must resolve in at most one
  ``fed_redirect`` hop, and the owner cache must keep the steady-state
  redirect rate below one per lookup.
* **Delta sync** — linking a new broker into a populated cluster must
  move only the entries the newcomer now owns (no full-index copy), and
  an unlink → relink cycle must resend nothing.
* **Convergence** — a publish accepted on the degraded local path
  during a network partition must reach its shard owner within a few
  anti-entropy sweeps after the partition heals.

A separate probe checks the hardening story: unsigned ``index_sync``
frames die in the secure stack and non-member frames die in the plain
stack, both with counted ``fed.reject.*`` metrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bench.fixtures import (
    BENCH_POLICY,
    build_secure_world,
    fresh_network,
)
from repro.bench.report import format_checks
from repro.bench.timing import fresh_registry
from repro.crypto.drbg import HmacDrbg
from repro.jxta.advertisements import FileAdvertisement
from repro.jxta.messages import Message
from repro.overlay.broker import Broker
from repro.overlay.client import ClientPeer
from repro.overlay.database import UserDatabase
from repro.overlay.presence import FederationSweeper
from repro.sim.faults import FaultPlan, Partition
from repro.sim.scheduler import Scheduler

BROKER_COUNTS = (2, 4, 8)
BROKER_COUNTS_QUICK = (2, 4)
N_CLIENTS = 48
SWEEP_INTERVAL = 15.0
# Accepted per-broker share ratio against the ideal total/B split.
SHARE_RATIO_BAND = (0.25, 2.0)


@dataclass
class FedCell:
    """One broker-count cell of the federation sweep."""

    n_brokers: int
    n_clients: int
    total_entries: int
    shares: dict[str, int]
    min_share_ratio: float
    max_share_ratio: float
    lookups: int
    redirects: int
    redirect_rate: float
    max_redirects_per_lookup: int
    link_entries_sent: int
    relink_entries_sent: int
    heal_convergence_s: float | None


def _build_cluster(n_brokers: int, n_clients: int):
    """B linked brokers, N logged-in clients spread round-robin."""
    net = fresh_network()
    root = HmacDrbg(b"bench-fed|%d" % n_brokers)
    database = UserDatabase(root.fork(b"db"))
    brokers = [Broker(net, f"broker:{i}", database, root.fork(b"br%d" % i),
                      name=f"B{i}") for i in range(n_brokers)]
    for other in brokers[1:]:
        brokers[0].link_broker(other)
    clients = []
    for i in range(n_clients):
        database.register_user(f"user{i}", f"pw{i}", {"bench"})
        client = ClientPeer(net, f"peer:{i}", root.fork(b"cl%d" % i),
                            name=f"user{i}-app")
        client.connect(brokers[i % n_brokers].address)
        client.login(f"user{i}", f"pw{i}")
        client.publish_file("bench", f"file-{i}.txt", b"x" * 32)
        clients.append(client)
    return net, root, brokers, clients


def _share_spread(brokers) -> tuple[dict[str, int], float, float]:
    shares = {b.address: len(b.control.cache) for b in brokers}
    expected = sum(shares.values()) / len(brokers)
    ratios = [n / expected for n in shares.values()]
    return shares, min(ratios), max(ratios)


def _redirect_probe(registry, clients) -> tuple[int, int, int]:
    """Client 0 resolves every other peer's file by shard key."""
    reader, lookups, redirects, worst = clients[0], 0, 0, 0
    for other in clients[1:]:
        before = registry.count("fed.redirects")
        reader.search_advertisements(adv_type="FileAdvertisement",
                                     peer_id=str(other.peer_id))
        hops = registry.count("fed.redirects") - before
        lookups += 1
        redirects += hops
        worst = max(worst, hops)
    return lookups, redirects, worst


def _link_probe(registry, net, root, brokers, database) -> tuple[int, int]:
    """Entries shipped when a fresh broker joins, and again on relink."""
    joiner = Broker(net, f"broker:{len(brokers)}", database,
                    root.fork(b"joiner"), name="BJ")
    before = registry.count("fed.sync.entries_sent")
    brokers[0].link_broker(joiner)
    link_sent = registry.count("fed.sync.entries_sent") - before
    brokers[0].unlink_broker(joiner)
    mid = registry.count("fed.sync.entries_sent")
    brokers[0].link_broker(joiner)
    relink_sent = registry.count("fed.sync.entries_sent") - mid
    brokers.append(joiner)
    return link_sent, relink_sent


def _heal_probe(net, brokers, clients) -> float | None:
    """Partition the cluster, publish on the degraded path, time the heal."""
    clock = net.clock
    scheduler = Scheduler(clock)
    for broker in brokers:
        FederationSweeper(broker, scheduler, interval=SWEEP_INTERVAL)
    home = brokers[0].address
    publisher = next(
        (c for c in clients if c.broker_address == home
         and brokers[0].federation.owner_of(str(c.peer_id)) != home), None)
    if publisher is None:  # every broker:0 client self-owns its shard
        return 0.0
    start, heal = clock.now + 10.0, clock.now + 90.0
    FaultPlan(Partition(
        [home] + [c.address for c in clients],
        [b.address for b in brokers[1:]],
        start=start, heal_at=heal)).install(net)
    clock.advance(start + 10.0 - clock.now)
    publisher.publish_file("bench", "wartime.txt", b"w")
    deadline = heal + 20 * SWEEP_INTERVAL
    t = max(heal, clock.now)
    while t <= deadline:
        scheduler.run_until(t)
        owner_addr = brokers[0].federation.owner_of(str(publisher.peer_id))
        owner = next(b for b in brokers if b.address == owner_addr)
        held = owner.control.cache.find("FileAdvertisement",
                                        peer_id=str(publisher.peer_id))
        if any(e.parsed.file_name == "wartime.txt" for e in held):
            return round(t - heal, 3)
        t += SWEEP_INTERVAL / 3.0
    return None


def fed_cell(n_brokers: int, n_clients: int = N_CLIENTS) -> FedCell:
    with fresh_registry() as registry:
        net, root, brokers, clients = _build_cluster(n_brokers, n_clients)
        shares, lo, hi = _share_spread(brokers)
        total = sum(shares.values())
        lookups, redirects, worst = _redirect_probe(registry, clients)
        link_sent, relink_sent = _link_probe(
            registry, net, root, brokers, brokers[0].database)
        heal = _heal_probe(net, brokers, clients)
        return FedCell(
            n_brokers=n_brokers, n_clients=n_clients, total_entries=total,
            shares=shares, min_share_ratio=round(lo, 3),
            max_share_ratio=round(hi, 3), lookups=lookups,
            redirects=redirects,
            redirect_rate=round(redirects / lookups, 3) if lookups else 0.0,
            max_redirects_per_lookup=worst, link_entries_sent=link_sent,
            relink_entries_sent=relink_sent, heal_convergence_s=heal)


def secure_reject_probe() -> dict:
    """Unsigned frames die in the secure stack, foreign ones in the plain."""
    with fresh_registry() as registry:
        net, admin, broker, clients = build_secure_world(
            n_clients=1, policy=BENCH_POLICY, joined=True)
        client = clients[0]
        adv = FileAdvertisement(peer_id=client.peer_id, file_name="evil",
                                size=1, sha256_hex="00", group="bench")
        rogue = Message("index_sync")
        rogue.add_xml("adv", adv.to_element())
        client.control.endpoint.send("broker:0", rogue)
        unsigned = registry.count("fed.reject.unsigned")
        forged_present = bool([
            e for e in broker.control.cache.find("FileAdvertisement")
            if e.parsed.file_name == "evil"])

    with fresh_registry() as registry:
        net = fresh_network()
        root = HmacDrbg(b"bench-fed-foreign")
        database = UserDatabase(root.fork(b"db"))
        plain = Broker(net, "broker:0", database, root.fork(b"br"), name="B0")
        database.register_user("user0", "pw0", {"bench"})
        walkin = ClientPeer(net, "peer:0", root.fork(b"cl"), name="user0-app")
        walkin.connect("broker:0")
        walkin.login("user0", "pw0")
        fake = FileAdvertisement(peer_id=walkin.peer_id, file_name="evil",
                                 size=1, sha256_hex="00", group="bench")
        rogue = Message("index_sync")
        rogue.add_xml("adv", fake.to_element())
        walkin.control.endpoint.send("broker:0", rogue)
        foreign = registry.count("fed.reject.foreign_index_sync")
        foreign_present = bool([
            e for e in plain.control.cache.find("FileAdvertisement")
            if e.parsed.file_name == "evil"])
    return {
        "unsigned_rejections": unsigned,
        "foreign_rejections": foreign,
        "forged_adv_indexed": forged_present or foreign_present,
    }


def _checks(cells: list[FedCell], rejects: dict) -> dict:
    four = next((c for c in cells if c.n_brokers == 4), None)
    lo, hi = SHARE_RATIO_BAND
    checks = {
        "shard_balance_4_brokers": bool(
            four and lo <= four.min_share_ratio
            and four.max_share_ratio <= hi),
        "lookups_at_most_one_redirect": all(
            c.max_redirects_per_lookup <= 1 for c in cells),
        "link_is_delta_sync": all(
            0 < c.link_entries_sent < c.total_entries for c in cells),
        "relink_resends_nothing": all(
            c.relink_entries_sent == 0 for c in cells),
        "partitions_converge": all(
            c.heal_convergence_s is not None for c in cells),
        "unsigned_index_sync_rejected": rejects["unsigned_rejections"] >= 1,
        "foreign_index_sync_rejected": rejects["foreign_rejections"] >= 1,
        "forged_adv_never_indexed": not rejects["forged_adv_indexed"],
    }
    checks["all_passed"] = all(checks.values())
    return checks


def fed_report(quick: bool = False) -> dict:
    """The complete E-FED document."""
    counts = BROKER_COUNTS_QUICK if quick else BROKER_COUNTS
    cells = [fed_cell(n) for n in counts]
    rejects = secure_reject_probe()
    return {
        "experiment": "E-FED",
        "quick": quick,
        "n_clients": N_CLIENTS,
        "sweep_interval_s": SWEEP_INTERVAL,
        "share_ratio_band": list(SHARE_RATIO_BAND),
        "cells": [asdict(c) for c in cells],
        "rejects": rejects,
        "checks": _checks(cells, rejects),
    }


def format_fed(data: dict) -> str:
    lines = [
        f"E-FED: sharded federation, {data['n_clients']} clients, "
        f"anti-entropy every {data['sweep_interval_s']:.0f}s",
        f"  {'B':>3}  {'entries':>7}  {'share lo':>8}  {'share hi':>8}  "
        f"{'redir/qry':>9}  {'max hops':>8}  {'link tx':>7}  "
        f"{'relink tx':>9}  {'heal s':>7}",
    ]
    for cell in data["cells"]:
        heal = cell["heal_convergence_s"]
        lines.append(
            f"  {cell['n_brokers']:>3}  {cell['total_entries']:>7}  "
            f"{cell['min_share_ratio']:>8.2f}  {cell['max_share_ratio']:>8.2f}  "
            f"{cell['redirect_rate']:>9.2f}  "
            f"{cell['max_redirects_per_lookup']:>8}  "
            f"{cell['link_entries_sent']:>7}  "
            f"{cell['relink_entries_sent']:>9}  "
            f"{'stuck' if heal is None else f'{heal:>7.1f}'}")
    rejects = data["rejects"]
    lines += [
        "",
        f"  rogue frames: {rejects['unsigned_rejections']} unsigned + "
        f"{rejects['foreign_rejections']} foreign rejected, forged adv "
        f"indexed: {rejects['forged_adv_indexed']}",
        "",
        *format_checks("E-FED", data["checks"]),
    ]
    return "\n".join(lines)
