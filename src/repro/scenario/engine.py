"""The phase runner: load + faults + adversaries → per-phase reports.

A :class:`Phase` declares what happens during one slice of virtual
time — cohort admissions following their arrival processes, a
:class:`~repro.sim.faults.FaultPlan` installed for the duration, a
churn storm, adversaries stepped on a regular cadence, and goodput
probes (real secure-client operations) interleaved through all of it.
:class:`ScenarioEngine` merges those into one time-ordered event list,
executes it on the scenario's virtual clock, and reports per phase:

* **goodput** — probe success ratio plus the network frame deltas;
* **reject taxonomy** — every ``wire.reject.*``, ``fed.reject.*``,
  ``fn.login*``/``fn.secure_login.*`` and ``faults.*`` counter that
  moved during the phase, grouped by layer;
* **population** — joins/leaves split by wire vs bulk admission;
* **convergence** — virtual seconds after the disruption lifts until a
  probe round fully succeeds again.

Reports are plain dicts (JSON-ready) so benches commit them as
baselines; all randomness forks the engine DRBG, so a run is a pure
function of (scenario seed, engine seed, phase list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import obs
from repro.crypto.drbg import HmacDrbg
from repro.errors import ReproError
from repro.scenario.adversaries import Adversary
from repro.scenario.builder import BuiltScenario
from repro.scenario.population import ActorPool, ChurnStorm
from repro.sim.faults import FaultPlan

__all__ = ["Phase", "EngineContext", "ScenarioEngine"]

#: counter prefixes folded into the reject taxonomy, by layer
_TAXONOMY = {
    "wire": ("wire.reject.",),
    "federation": ("fed.reject.",),
    "login": ("fn.login.rejected",),
    "secure_login": ("fn.secure_login.cbid_mismatch",
                     "fn.secure_login.malformed",
                     "fn.secure_login.replayed",
                     "fn.secure_login.rejected"),
    "faults": ("faults.",),
}


@dataclass(frozen=True)
class Phase:
    """One declarative slice of scenario time."""

    name: str
    duration_s: float = 10.0
    #: cohort name → how many pending members to admit this phase
    admissions: Mapping[str, int] = field(default_factory=dict)
    churn: ChurnStorm | None = None
    faults: FaultPlan | None = None
    adversaries: Sequence[Adversary] = ()
    #: probe rounds spread across the phase (goodput sampling)
    probes: int = 10
    #: adversary step cadence
    ticks: int = 10


@dataclass
class EngineContext:
    """What adversaries and probes see of the running scenario."""

    network: object
    transport: object          # register/send/request surface
    brokers: dict
    admin: object
    policy: object
    rng: HmacDrbg
    clock: object


class ScenarioEngine:
    """Run phases against a built scenario and collect the reports.

    ``probe_pairs`` names (sender, recipient, group) triples over
    ``scenario.peers``; each probe is a real message-send primitive
    (secure or plain, matching the peer type), so goodput reflects what
    an end user experiences through faults and attacks.
    """

    def __init__(self, scenario: BuiltScenario, pool: ActorPool | None = None,
                 probe_pairs: Sequence[tuple[str, str, str]] = (),
                 seed: bytes = b"engine",
                 convergence_step_s: float = 0.5,
                 convergence_max_rounds: int = 40) -> None:
        self.scenario = scenario
        self.pool = pool
        self.probe_pairs = list(probe_pairs)
        self.rng = HmacDrbg(seed, personalization=b"scenario-engine")
        self.convergence_step_s = convergence_step_s
        self.convergence_max_rounds = convergence_max_rounds
        self._probe_stats = {"attempts": 0, "ok": 0}
        self.ctx = EngineContext(
            network=scenario.network, transport=scenario.network,
            brokers=scenario.brokers, admin=scenario.admin,
            policy=getattr(scenario, "policy", None), rng=self.rng,
            clock=scenario.clock)

    # -- public API --------------------------------------------------------

    def run(self, phases: Sequence[Phase]) -> dict:
        reports = [self._run_phase(p) for p in phases]
        return {"phases": reports,
                "population": dict(self.pool.stats) if self.pool else {},
                "active_sessions": (self.pool.active_count()
                                    if self.pool else None)}

    # -- phase execution ---------------------------------------------------

    def _run_phase(self, phase: Phase) -> dict:
        clock = self.scenario.clock
        t0 = clock.now
        before = self._counters()
        probes_before = dict(self._probe_stats)
        rng = self.rng.fork(b"phase|" + phase.name.encode())

        injector = None
        if phase.faults is not None:
            injector = phase.faults.install(self.scenario.network,
                                            seed=b"faults|"
                                            + phase.name.encode())
        for adv in phase.adversaries:
            adv.attach(self.ctx)

        events = self._schedule(phase, rng)
        joins = leaves = 0
        for offset, _, kind, payload in events:
            target = t0 + offset
            if target > clock.now:
                clock.advance(target - clock.now)
            self.scenario.scheduler.run_until(clock.now)
            if kind == "join":
                joins += bool(self.pool.join(payload))
            elif kind == "leave":
                leaves += bool(self.pool.leave(payload))
            elif kind == "adv":
                payload.step(self.ctx)
            elif kind == "probe":
                self._probe_round()
        if t0 + phase.duration_s > clock.now:
            clock.advance(t0 + phase.duration_s - clock.now)
        self.scenario.scheduler.run_until(clock.now)

        for adv in phase.adversaries:
            adv.detach(self.ctx)
        if injector is not None:
            injector.uninstall()

        convergence = None
        if (phase.faults is not None or phase.adversaries) and self.probe_pairs:
            convergence = self._measure_convergence()

        delta = self._delta(before, self._counters())
        attempts = self._probe_stats["attempts"] - probes_before["attempts"]
        ok = self._probe_stats["ok"] - probes_before["ok"]
        report = {
            "name": phase.name,
            "duration_s": phase.duration_s,
            "population": {
                "joins": joins, "leaves": leaves,
                "active": self.pool.active_count() if self.pool else None},
            "goodput": {
                "probe_attempts": attempts, "probe_ok": ok,
                "probe_ratio": (ok / attempts) if attempts else None,
                "frames_sent": delta.get("net.frames_sent", 0),
                "frames_delivered": delta.get("net.frames_delivered", 0),
                "frames_dropped": delta.get("net.frames_dropped", 0)},
            "rejects": self._taxonomy(delta),
            "adversaries": {adv.name: adv.summary()
                            for adv in phase.adversaries},
            "convergence_s": convergence,
        }
        return report

    def _schedule(self, phase: Phase,
                  rng: HmacDrbg) -> list[tuple[float, int, str, object]]:
        """Merge admissions, churn, adversary ticks and probes by time."""
        events: list[tuple[float, int, str, object]] = []
        serial = 0

        def add(offset: float, kind: str, payload) -> None:
            nonlocal serial
            events.append((offset, serial, kind, payload))
            serial += 1

        duration = phase.duration_s
        for cohort_name, count in phase.admissions.items():
            if self.pool is None:
                raise ReproError("phase admits actors but the engine has "
                                 "no ActorPool")
            pending = self.pool.pending_actors(cohort_name)[:count]
            arrivals = self._arrivals_for(cohort_name)
            for actor, offset in zip(
                    pending, arrivals.offsets(len(pending), duration,
                                              rng.fork(b"admit|"
                                                       + cohort_name.encode()))):
                add(offset, "join", actor)
        if phase.churn is not None:
            if self.pool is None:
                raise ReproError("phase declares churn but the engine has "
                                 "no ActorPool")
            churn_rng = rng.fork(b"churn")
            joined = self.pool.joined_actors()
            window = duration * phase.churn.leave_window
            for _ in range(min(phase.churn.count, len(joined))):
                actor = joined.pop(churn_rng.rand_below(len(joined)))
                at = churn_rng.uniform() * window
                add(at, "leave", actor)
                if phase.churn.rejoin:
                    add(min(at + phase.churn.downtime_s, duration), "join",
                        actor)
        for adv in phase.adversaries:
            for i in range(phase.ticks):
                add(duration * (i + 0.5) / phase.ticks, "adv", adv)
        for i in range(phase.probes):
            add(duration * (i + 0.5) / phase.probes, "probe", None)
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    def _arrivals_for(self, cohort_name: str):
        if self.pool is None:
            raise ReproError("no ActorPool attached")
        cohort = self.pool.cohorts.get(cohort_name)
        if cohort is None:
            raise ReproError(f"unknown cohort {cohort_name!r}")
        return cohort.arrivals

    # -- probes and convergence -------------------------------------------

    def _probe_round(self) -> bool:
        """One probe per configured pair; True if every probe succeeded."""
        all_ok = bool(self.probe_pairs)
        for sender, recipient, group in self.probe_pairs:
            self._probe_stats["attempts"] += 1
            if self._probe_once(sender, recipient, group):
                self._probe_stats["ok"] += 1
            else:
                all_ok = False
        return all_ok

    def _probe_once(self, sender: str, recipient: str, group: str) -> bool:
        peers = self.scenario.peers
        src, dst = peers[sender], peers[recipient]
        try:
            if hasattr(src, "secure_msg_peer"):
                return bool(src.secure_msg_peer(str(dst.peer_id), group,
                                                "probe"))
            return bool(src.send_msg_peer(str(dst.peer_id), group,
                                          "probe").ok)
        except ReproError:
            return False

    def _measure_convergence(self) -> float | None:
        """Virtual seconds until a full probe round succeeds again."""
        clock = self.scenario.clock
        start = clock.now
        for _ in range(self.convergence_max_rounds):
            if self._probe_round():
                return clock.now - start
            clock.advance(self.convergence_step_s)
            self.scenario.scheduler.run_until(clock.now)
        return None

    # -- metric bookkeeping ------------------------------------------------

    def _counters(self) -> dict[str, int]:
        """Process counters plus each broker's own counters, summed by name.

        Broker function counters (``fn.*``) live in each endpoint's own
        registry (``Endpoint.metrics``); the phase report wants the
        fleet-wide taxonomy, so both sources fold together.
        """
        registry = obs.get_registry()
        out = {name: registry.count(name)
               for name in registry.metric_names()}
        for broker in self.scenario.brokers.values():
            for name, count in broker.metrics.snapshot()["counters"].items():
                out[name] = out.get(name, 0) + count
        return out

    @staticmethod
    def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {name: count - before.get(name, 0)
                for name, count in after.items()
                if count - before.get(name, 0)}

    @staticmethod
    def _taxonomy(delta: dict[str, int]) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for layer, prefixes in _TAXONOMY.items():
            hits = {name: count for name, count in delta.items()
                    if any(name.startswith(p) for p in prefixes)}
            out[layer] = dict(sorted(hits.items()))
        return out
