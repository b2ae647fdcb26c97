"""E-FAULT: primitive robustness under injected faults.

Two parts, both deterministic under the sim RNG:

* **loss sweep** — plain ``send_msg_peer`` and ``secure_msg_peer`` under
  frame-loss rates, with retries off (``NO_RETRY`` / the secure
  default) and on (the ``messenger`` policy).  The expected shape:
  without retries the delivery rate tracks ``1 - loss``; with a
  4-attempt policy the per-message failure probability drops to
  ``loss**4`` (0.01% at 10% loss), so the measured rate sits at ~100%.
* **crash recovery** — a :class:`~repro.sim.faults.BrokerCrash` takes
  the broker down mid-session and wipes its RAM (sessions *and* the
  one-shot sid store) on restart.  The client's next broker-backed
  primitive rides the retry policy through the outage, hits the
  restarted broker's "no matching authenticated session", and
  re-establishes transparently: secureConnection (fresh sid) +
  secureLogin, then the original request is re-sent and succeeds.

``python -m repro.bench --experiment fault`` prints the report, writes
``BENCH_FAULT.json`` and exits nonzero if an acceptance check fails:
every 0%-loss cell delivers every message, retries never deliver fewer
messages than the same cell without them, and the crashed session
recovers on a fresh sid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro import obs
from repro.bench.fixtures import build_plain_world, build_secure_world, join_plain
from repro.bench.report import format_checks
from repro.overlay.policy import NO_RETRY, RetryPolicy
from repro.sim.faults import BrokerCrash, FaultPlan, FrameLoss

#: the sweep's frame-loss rates
LOSS_RATES = (0.0, 0.05, 0.10, 0.20)

#: the retry policy the "retries on" cells use (the messenger default)
SWEEP_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.05)


@dataclass
class LossCell:
    """One (variant, loss, retries) cell of the sweep."""

    variant: str          # 'plain' | 'secure'
    loss: float
    retries: bool
    sent: int
    delivered: int
    success_rate: float
    retries_recorded: int


def _sweep_variant(variant: str, messages: int) -> list[LossCell]:
    """Run every (loss, retries) cell for one primitive variant."""
    if variant == "plain":
        net, _broker, clients = build_plain_world(
            n_clients=2, seed=b"bench-fault-plain")
        join_plain(clients)
        sender, receiver = clients
        retries_metric = "overlay.send_msg_peer.retries"

        def send(retry):
            result = sender.send_msg_peer(
                str(receiver.peer_id), "bench", "fault-sweep probe",
                retry=retry)
            return result.ok
    else:
        net, _admin, _broker, clients = build_secure_world(
            n_clients=2, seed=b"bench-fault-secure", joined=True)
        sender, receiver = clients
        retries_metric = "overlay.secure_msg_peer.retries"

        def send(retry):
            return sender.secure_msg_peer(
                str(receiver.peer_id), "bench", "fault-sweep probe",
                retry=retry)

    # Warm the pipe-advertisement caches so measured sends are pure
    # peer-to-peer datagrams (no broker round-trips inside a cell).
    send(None if variant == "secure" else NO_RETRY)

    registry = obs.get_registry()
    cells: list[LossCell] = []
    for loss in LOSS_RATES:
        for retries in (False, True):
            retry = SWEEP_RETRY if retries else (
                NO_RETRY if variant == "plain" else None)
            plan = FaultPlan(FrameLoss(loss))
            injector = plan.install(
                net, seed=f"fault|{variant}|{loss}|{retries}")
            before = registry.count(retries_metric)
            delivered = sum(1 for _ in range(messages) if send(retry))
            injector.uninstall()
            cells.append(LossCell(
                variant=variant, loss=loss, retries=retries,
                sent=messages, delivered=delivered,
                success_rate=delivered / messages,
                retries_recorded=registry.count(retries_metric) - before))
    return cells


def fault_loss_sweep(messages: int = 100) -> list[LossCell]:
    """The full loss sweep: both variants, retries off and on."""
    return _sweep_variant("plain", messages) + _sweep_variant("secure", messages)


def crash_recovery_scenario() -> dict:
    """Broker crash + restart mid-session; the client recovers on its own.

    Returns a JSON-ready dict recording the degradation events, the
    retry count, and proof that the recovered session runs on a *fresh*
    sid (the pre-crash sid store was wiped, so its count restarts).
    """
    net, _admin, broker, clients = build_secure_world(
        n_clients=2, seed=b"bench-fault-crash", joined=True)
    alice = clients[0]

    degraded: list[str] = []
    retries: list[int] = []
    sub_degraded = obs.on("on_degraded", lambda **kw: degraded.append(kw["reason"]))
    sub_retry = obs.on("on_retry", lambda **kw: retries.append(kw["attempt"]))
    sids_before = broker.sids.issued_total
    sessions_before = len(broker.connected)

    start = net.clock.now
    plan = FaultPlan(BrokerCrash("broker:0", at=start, restart_at=start + 0.25,
                                 on_restart=broker.restart))
    injector = plan.install(net, seed=b"bench-crash")
    try:
        members = alice.secure_create_group("post-crash-room")
        recovered = "post-crash-room" in alice.groups and bool(members)
    finally:
        injector.uninstall()
        obs.get_events().off("on_degraded", sub_degraded)
        obs.get_events().off("on_retry", sub_retry)

    return {
        "recovered": recovered,
        "outage_s": 0.25,
        "retries_during_outage": len(retries),
        "degradation_events": degraded,
        "sessions_before_crash": sessions_before,
        "sessions_after_recovery": len(broker.connected),
        "fresh_sids_issued_for_recovery": broker.sids.issued_total - sids_before,
        "broker_restarts": broker.metrics.count("fn.restarts"),
    }


def _checks(cells: list[LossCell], crash: dict) -> dict:
    """The acceptance checks (the exit code mirrors ``all_passed``).

    Retries need not deliver everything: at 20% loss a 4-attempt policy
    still loses a message now and then, so the check is only that they
    never deliver fewer than the same cell without them.
    """
    without = {(c.variant, c.loss): c.delivered for c in cells if not c.retries}
    checks = {
        "lossless_delivers_all": all(
            c.delivered == c.sent for c in cells if c.loss == 0.0),
        "retries_never_deliver_fewer": all(
            c.delivered >= without[(c.variant, c.loss)]
            for c in cells if c.retries),
        "crash_recovered_on_fresh_sid": (
            crash["recovered"]
            and crash["fresh_sids_issued_for_recovery"] >= 1),
    }
    checks["all_passed"] = all(checks.values())
    return checks


def fault_report(quick: bool = False) -> dict:
    """The complete E-FAULT document (30 messages per cell when quick)."""
    messages = 30 if quick else 100
    cells = fault_loss_sweep(messages)
    crash = crash_recovery_scenario()
    return {
        "experiment": "E-FAULT",
        "quick": quick,
        "messages_per_cell": messages,
        "retry_policy": {
            "max_attempts": SWEEP_RETRY.max_attempts,
            "base_delay_s": SWEEP_RETRY.base_delay_s,
            "multiplier": SWEEP_RETRY.multiplier,
            "jitter": SWEEP_RETRY.jitter,
        },
        "loss_sweep": [asdict(c) for c in cells],
        "crash_recovery": crash,
        "checks": _checks(cells, crash),
    }


def format_fault_report(data: dict) -> str:
    lines = [
        "E-FAULT: messenger delivery under frame loss",
        f"  {'variant':>8}  {'loss':>6}  {'retries':>8}  "
        f"{'delivered':>12}  {'rate':>7}  {'re-sends':>8}",
    ]
    for cell in data["loss_sweep"]:
        lines.append(
            f"  {cell['variant']:>8}  {cell['loss']:>6.0%}  "
            f"{'on' if cell['retries'] else 'off':>8}  "
            f"{cell['delivered']:>5}/{cell['sent']:<6}  "
            f"{cell['success_rate']:>7.1%}  {cell['retries_recorded']:>8}")
    crash = data["crash_recovery"]
    lines += [
        "",
        "E-FAULT: broker crash + restart mid-session",
        f"  recovered transparently : {crash['recovered']}",
        f"  retries during outage   : {crash['retries_during_outage']}",
        f"  fresh sids for recovery : {crash['fresh_sids_issued_for_recovery']}",
        f"  degradation events      : {len(crash['degradation_events'])}",
    ]
    for reason in crash["degradation_events"]:
        lines.append(f"    - {reason}")
    lines += ["", *format_checks("E-FAULT", data["checks"])]
    return "\n".join(lines)
