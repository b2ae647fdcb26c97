"""E-SCALE: the population-scale security experiment.

The paper argues the secure primitives hold up "in the context of a
real overlay" (§5) — brokers serving campus-sized populations while
under exactly the §2.3 threats.  E-SCALE stages that end to end with
the scenario engine: a federated ring of eight secure brokers, a
hundred-thousand-actor population admitted through cohort arrival
processes, then the canonical disruption mix — a churn storm, a Sybil
flood against node-id assignment, an eclipse attempt against the
federation ring and a malformed-frame storm from the wire fuzzer —
followed by a clean recovery window.

Reported per phase: goodput (probe success over real secure-messaging
primitives, frame deltas), the full reject taxonomy
(``wire.reject.*`` / ``fed.reject.*`` / ``fn.secure_login.*``) and the
post-disruption convergence time.  The acceptance checks encode the
security claims:

* every Sybil identity is rejected (CBID mismatch before any sid or
  signature work — the attack is cheap for the attacker and cheaper
  for the broker);
* the eclipse roster never enters any broker's ring
  (``fed.reject.unsigned``, captured id-space fraction exactly 0);
* the frame storm is fully absorbed at the wire boundary, classified
  under the expected reasons, before any handler runs;
* goodput returns to 100% after the disruption lifts.

``python -m repro.bench --experiment scale --quick --gate`` compares a
fresh document against the committed quick-profile baseline (count
quantities only; latency and convergence stay informational).
"""

from __future__ import annotations

import json
import time

from repro.bench.fixtures import BENCH_POLICY
from repro.bench.timing import fresh_registry
from repro.crypto.drbg import HmacDrbg
from repro.scenario import (
    ActorPool,
    ChurnStorm,
    Cohort,
    EclipseAttack,
    FlashCrowd,
    FrameStorm,
    Phase,
    PoissonArrivals,
    Scenario,
    ScenarioEngine,
    SybilFlood,
)
from repro.sim.faults import FaultPlan, FrameLoss

#: full-profile shape (the headline experiment)
BROKERS = 8
POPULATION = 100_000
GROUPS = 400
CHURN = 2_000
SYBILS = 512
STORM_TICKS = 20

#: quick-profile shape (CI smoke + committed baseline)
POPULATION_QUICK = 2_000
GROUPS_QUICK = 40
CHURN_QUICK = 200
SYBILS_QUICK = 64
STORM_TICKS_QUICK = 8

#: fraction of the population joining through the real login exchange
WIRE_FRACTION = 0.002

GROUP = "scale-probe"


def _build_world(quick: bool):
    """The deployment + population + engine, straight from the DSL."""
    population = POPULATION_QUICK if quick else POPULATION
    builder = Scenario(seed=b"e-scale", policy=BENCH_POLICY)
    builder.with_user("probe-a", "pw", groups={GROUP})
    builder.with_user("probe-b", "pw", groups={GROUP})
    for i in range(BROKERS):
        builder.with_broker(f"broker:{i}")
    builder.with_secure_peer("probe-a").with_secure_peer("probe-b")
    scn = builder.build(join=True)

    pool = ActorPool(scn.network, scn.brokers.values(), scn.admin,
                     HmacDrbg(b"e-scale-pool"))
    n_groups = GROUPS_QUICK if quick else GROUPS
    groups = tuple(f"course-{i:03d}" for i in range(n_groups))
    steady = int(population * 0.95)
    pool.provision(Cohort("steady", steady, arrivals=PoissonArrivals(),
                          groups=groups, wire_fraction=WIRE_FRACTION))
    pool.provision(Cohort("flash", population - steady,
                          arrivals=FlashCrowd(at=0.5, width=0.1),
                          wire_fraction=WIRE_FRACTION))
    engine = ScenarioEngine(scn, pool=pool,
                            probe_pairs=[("probe-a", "probe-b", GROUP)],
                            seed=b"e-scale-engine")
    return scn, pool, engine


def _phases(quick: bool) -> tuple[list[Phase], dict]:
    """The canonical E-SCALE mix; also returns the adversaries by name."""
    steady = int((POPULATION_QUICK if quick else POPULATION) * 0.95)
    flash = (POPULATION_QUICK if quick else POPULATION) - steady
    adversaries = {
        "sybil": SybilFlood(identities=SYBILS_QUICK if quick else SYBILS,
                            per_step=16 if quick else 64),
        "eclipse": EclipseAttack(rogues=BROKERS, per_step=2),
        "storm": FrameStorm(per_step=32 if quick else 128),
    }
    ticks = STORM_TICKS_QUICK if quick else STORM_TICKS
    phases = [
        Phase("ramp", duration_s=60.0, admissions={"steady": steady},
              probes=10),
        Phase("flash-crowd", duration_s=20.0, admissions={"flash": flash},
              probes=10),
        Phase("brownout", duration_s=20.0,
              churn=ChurnStorm(count=CHURN_QUICK if quick else CHURN,
                               downtime_s=2.0),
              faults=FaultPlan(FrameLoss(rate=0.05)),
              probes=10),
        Phase("siege", duration_s=20.0,
              adversaries=tuple(adversaries.values()),
              ticks=ticks, probes=10),
        Phase("recovery", duration_s=20.0, probes=10),
    ]
    return phases, adversaries


def _wire_reject_total(phase_report: dict) -> int:
    return sum(phase_report["rejects"]["wire"].values())


def reject_total(phase_report: dict) -> int:
    """Every reject a phase counted, across the whole taxonomy."""
    return sum(sum(layer.values())
               for layer in phase_report["rejects"].values())


def _checks(report: dict, adversaries: dict, engine: ScenarioEngine,
            population: int) -> dict:
    by_name = {p["name"]: p for p in report["phases"]}
    siege = by_name["siege"]
    sybil = adversaries["sybil"].summary()
    storm = adversaries["storm"].summary()
    eclipse = adversaries["eclipse"].summary()
    secure_rejects = sum(siege["rejects"]["secure_login"].values())
    checks = {
        "sybil_none_accepted": sybil["accepted"] == 0,
        "sybil_taxonomy_accounts_all":
            secure_rejects >= sybil["attempts"],
        "eclipse_no_link_accepted": eclipse["link_ok"] == 0,
        "eclipse_zero_capture":
            adversaries["eclipse"].captured_fraction(engine.ctx) == 0.0,
        "eclipse_rejected_unsigned":
            siege["rejects"]["federation"].get("fed.reject.unsigned", 0) > 0,
        "storm_absorbed_at_boundary":
            _wire_reject_total(siege) >= storm["frames_sent"],
        "population_admitted":
            report["active_sessions"] >= int(population * 0.95),
        "goodput_recovers":
            by_name["recovery"]["goodput"]["probe_ratio"] == 1.0,
        "siege_converged": siege["convergence_s"] is not None,
    }
    checks["all_passed"] = all(checks.values())
    return checks


def scale_report(quick: bool = False) -> dict:
    """The complete E-SCALE document."""
    population = POPULATION_QUICK if quick else POPULATION
    started = time.perf_counter()
    with fresh_registry() as registry:
        scn, pool, engine = _build_world(quick)
        phases, adversaries = _phases(quick)
        run = engine.run(phases)
        checks = _checks(run, adversaries, engine, population)
    return {
        "experiment": "E-SCALE",
        "quick": quick,
        "rsa_bits": BENCH_POLICY.rsa_bits,
        "brokers": BROKERS,
        "population": population,
        "wire_fraction": WIRE_FRACTION,
        "phases": run["phases"],
        "population_stats": run["population"],
        "active_sessions": run["active_sessions"],
        "checks": checks,
        "wall_s": round(time.perf_counter() - started, 3),
    }


def format_scale(data: dict) -> str:
    lines = [
        f"E-SCALE: {data['population']:,} clients / {data['brokers']} "
        f"secure brokers (rsa-{data['rsa_bits']}"
        f"{', quick' if data['quick'] else ''})",
        "",
        f"  {'phase':<12} {'joins':>7} {'leaves':>7} {'probes':>7} "
        f"{'good%':>6} {'rejects':>8} {'conv(s)':>8}",
    ]
    for phase in data["phases"]:
        rejects = reject_total(phase)
        good = phase["goodput"]["probe_ratio"]
        conv = phase["convergence_s"]
        lines.append(
            f"  {phase['name']:<12} {phase['population']['joins']:>7} "
            f"{phase['population']['leaves']:>7} "
            f"{phase['goodput']['probe_attempts']:>7} "
            f"{good * 100 if good is not None else 0:>6.1f} "
            f"{rejects:>8} "
            f"{conv if conv is not None else float('nan'):>8.3f}")
    lines.append("")
    siege = next(p for p in data["phases"] if p["name"] == "siege")
    for name, summary in sorted(siege["adversaries"].items()):
        lines.append(f"  {name}: {json.dumps(summary, sort_keys=True)}")
    lines.append("")
    lines.append(f"  active sessions: {data['active_sessions']:,}   "
                 f"wall: {data['wall_s']}s")
    status = "pass" if data["checks"]["all_passed"] else "FAIL"
    failing = [k for k, v in data["checks"].items()
               if k != "all_passed" and not v]
    lines.append(f"  checks: {status}"
                 + (f" ({', '.join(failing)})" if failing else ""))
    return "\n".join(lines)
