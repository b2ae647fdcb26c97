"""Scenario engine: phase reports, adversaries, faults, convergence."""

from __future__ import annotations

import pytest

from repro import obs
from repro.crypto.drbg import HmacDrbg
from repro.errors import ReproError
from repro.scenario import (
    ActorPool,
    ChurnStorm,
    Cohort,
    EclipseAttack,
    FrameStorm,
    Phase,
    Scenario,
    ScenarioEngine,
    SybilFlood,
)
from repro.sim.faults import FaultPlan, FrameLoss
from tests.conftest import TEST_POLICY


@pytest.fixture()
def registry():
    saved = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    yield registry
    obs.set_registry(saved)


def secure_world(n_brokers: int = 2):
    builder = Scenario(seed=b"engine-test", policy=TEST_POLICY)
    builder.with_user("alice", "pw", groups={"lab"})
    builder.with_user("bob", "pw", groups={"lab"})
    for i in range(n_brokers):
        builder.with_broker(f"broker:{i}")
    builder.with_secure_peer("alice").with_secure_peer("bob")
    scn = builder.build(join=True)
    pool = ActorPool(scn.network, scn.brokers.values(), scn.admin,
                     HmacDrbg(b"engine-pool"))
    engine = ScenarioEngine(scn, pool=pool,
                            probe_pairs=[("alice", "bob", "lab")])
    return scn, pool, engine


class TestPhaseReports:
    def test_admission_phase_reports_population_and_goodput(self, registry):
        scn, pool, engine = secure_world()
        pool.provision(Cohort("c", 50, groups=("g0",)))
        report = engine.run([Phase("ramp", duration_s=10.0,
                                   admissions={"c": 50}, probes=5)])
        phase = report["phases"][0]
        assert phase["population"]["joins"] == 50
        assert phase["goodput"]["probe_attempts"] == 5
        assert phase["goodput"]["probe_ratio"] == 1.0
        assert phase["goodput"]["frames_sent"] > 0
        assert report["active_sessions"] == 52  # actors + two probe peers
        assert phase["convergence_s"] is None   # nothing to recover from

    def test_clock_advances_by_phase_duration(self, registry):
        scn, pool, engine = secure_world()
        t0 = scn.clock.now
        engine.run([Phase("idle", duration_s=7.5, probes=1)])
        assert scn.clock.now == pytest.approx(t0 + 7.5)

    def test_churn_joins_back_and_reports_leaves(self, registry):
        scn, pool, engine = secure_world()
        pool.provision(Cohort("c", 40))
        engine.run([Phase("ramp", duration_s=5.0, admissions={"c": 40},
                          probes=1)])
        report = engine.run([Phase("storm", duration_s=10.0,
                                   churn=ChurnStorm(count=10), probes=1)])
        phase = report["phases"][0]
        assert phase["population"]["leaves"] == 10
        assert phase["population"]["joins"] == 10
        assert report["active_sessions"] == 42

    def test_faults_counted_and_convergence_measured(self, registry):
        scn, pool, engine = secure_world()
        report = engine.run([Phase("lossy", duration_s=10.0,
                                   faults=FaultPlan(FrameLoss(rate=1.0)),
                                   probes=4)])
        phase = report["phases"][0]
        assert phase["rejects"]["faults"]["faults.loss.injected"] > 0
        assert phase["goodput"]["probe_ratio"] < 1.0
        # total loss lifted at phase end: recovery must complete
        assert phase["convergence_s"] is not None

    def test_unknown_cohort_raises(self, registry):
        scn, pool, engine = secure_world()
        with pytest.raises(ReproError, match="unknown cohort"):
            engine.run([Phase("x", admissions={"ghost": 5})])

    def test_admissions_without_pool_raise(self, registry):
        scn, _, _ = secure_world()
        engine = ScenarioEngine(scn)
        with pytest.raises(ReproError, match="no ActorPool"):
            engine.run([Phase("x", admissions={"c": 1})])


class TestSybilFlood:
    def test_secure_brokers_reject_every_identity(self, registry):
        scn, pool, engine = secure_world()
        sybil = SybilFlood(identities=12, per_step=4, malformed_every=4)
        report = engine.run([Phase("siege", duration_s=5.0,
                                   adversaries=(sybil,), ticks=3,
                                   probes=1)])
        summary = sybil.summary()
        assert summary["attempts"] == 12
        assert summary["accepted"] == 0
        rejects = report["phases"][0]["rejects"]["secure_login"]
        assert rejects["fn.secure_login.cbid_mismatch"] == 9
        assert rejects["fn.secure_login.malformed"] == 3

    def test_plain_brokers_accept_the_flood(self, registry):
        # The vulnerability the secure stack closes: one stolen
        # credential mints as many sessions as the attacker likes.
        builder = Scenario(seed=b"plain-sybil")
        builder.with_user("victim", "stolen", groups=set())
        builder.with_broker("broker:0", secure=False)
        scn = builder.build()
        engine = ScenarioEngine(scn)
        sybil = SybilFlood(identities=8, per_step=8,
                           stolen_user="victim", stolen_password="stolen")
        engine.run([Phase("siege", duration_s=2.0, adversaries=(sybil,),
                          ticks=1, probes=0)])
        summary = sybil.summary()
        assert summary["accepted"] == 8
        assert len(scn.broker().connected) == 8


class TestEclipse:
    def test_secure_federation_rejects_rogue_roster(self, registry):
        scn, pool, engine = secure_world(n_brokers=3)
        eclipse = EclipseAttack(rogues=4, per_step=3)
        report = engine.run([Phase("siege", duration_s=5.0,
                                   adversaries=(eclipse,), ticks=2,
                                   probes=1)])
        assert eclipse.summary()["link_ok"] == 0
        assert eclipse.captured_fraction(engine.ctx) == 0.0
        fed = report["phases"][0]["rejects"]["federation"]
        assert fed["fed.reject.unsigned"] == 6

    def test_plain_federation_is_captured(self, registry):
        builder = Scenario(seed=b"plain-eclipse")
        for i in range(2):
            builder.with_broker(f"broker:{i}", secure=False)
        scn = builder.build()
        engine = ScenarioEngine(scn)
        eclipse = EclipseAttack(rogues=4, per_step=4)
        engine.run([Phase("siege", duration_s=2.0, adversaries=(eclipse,),
                          ticks=1, probes=0)])
        assert eclipse.summary()["link_ok"] > 0
        assert eclipse.captured_fraction(engine.ctx) > 0.0


class TestFrameStorm:
    def test_storm_fully_absorbed_at_wire_boundary(self, registry):
        scn, pool, engine = secure_world()
        storm = FrameStorm(per_step=25)
        report = engine.run([Phase("siege", duration_s=5.0,
                                   adversaries=(storm,), ticks=2,
                                   probes=0)])
        summary = storm.summary()
        assert summary["frames_sent"] == 50
        assert summary["corpus_size"] > 0
        wire = report["phases"][0]["rejects"]["wire"]
        assert sum(wire.values()) == summary["frames_sent"]

    def test_corpus_restricted_to_handled_types(self, registry):
        scn, pool, engine = secure_world()
        storm = FrameStorm(msg_types=("login_req",))
        storm.attach(engine.ctx)
        assert all(label.startswith("login_req.")
                   for label, _, _ in storm._corpus)


class TestDeterminism:
    def run_once(self):
        saved = obs.get_registry()
        obs.set_registry(obs.Registry())
        try:
            scn, pool, engine = secure_world()
            pool.provision(Cohort("c", 30, groups=("g0",),
                                  wire_fraction=0.2))
            report = engine.run([
                Phase("ramp", duration_s=5.0, admissions={"c": 30},
                      probes=2),
                Phase("storm", duration_s=5.0, churn=ChurnStorm(count=5),
                      adversaries=(SybilFlood(identities=6, per_step=3),),
                      ticks=2, probes=2),
            ])
        finally:
            obs.set_registry(saved)
        return report

    def test_identical_runs_produce_identical_reports(self):
        assert self.run_once() == self.run_once()
