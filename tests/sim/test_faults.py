"""Fault injection: deterministic, composable, countable.

The contract under test (see ``src/repro/sim/faults.py``):

* a (plan, seed) pair replays the exact same fault schedule,
* each fault draws from its own DRBG stream (composition does not
  perturb schedules),
* windowed outages heal exactly at their boundary,
* ``BrokerCrash`` runs its restart callback once, and
* injections are counted as ``faults.<fault>.injected``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.sim import (
    BrokerCrash,
    DuplicateDelivery,
    FaultPlan,
    FrameLoss,
    LatencyJitter,
    LinkOutage,
    Partition,
    SimNetwork,
    VirtualClock,
)


@pytest.fixture()
def fresh_obs():
    saved = (obs.get_registry(), obs.get_events())
    registry = obs.set_registry(obs.Registry())
    obs.set_events(obs.ProtocolEvents(registry=registry))
    try:
        yield registry
    finally:
        obs.set_registry(saved[0])
        obs.set_events(saved[1])


def make_net(receivers=("a", "b")) -> tuple[SimNetwork, dict[str, list]]:
    net = SimNetwork(clock=VirtualClock())
    inboxes: dict[str, list] = {}
    for address in receivers:
        box: list = []
        inboxes[address] = box
        net.register(address, box.append)
    return net, inboxes


def delivery_pattern(seed, n=60, rate=0.3) -> list[bool]:
    net, _ = make_net()
    FaultPlan(FrameLoss(rate)).install(net, seed=seed)
    return [net.send("a", "b", b"x") for _ in range(n)]


class TestDeterminism:
    def test_same_seed_replays_identically(self):
        first = delivery_pattern(b"seed-1")
        second = delivery_pattern(b"seed-1")
        assert first == second
        assert not all(first)          # some frames were dropped
        assert any(first)              # and some survived

    def test_different_seed_differs(self):
        assert delivery_pattern(b"seed-1") != delivery_pattern(b"seed-2")

    def test_composition_preserves_per_fault_streams(self):
        """Adding a second fault must not shift the first one's schedule.

        Each fault's stream is labelled by (index, name), so a loss
        fault at index 0 draws the same sequence whether or not a
        jitter fault rides along behind it.
        """
        alone = delivery_pattern(b"seed-c")
        net, _ = make_net()
        FaultPlan(FrameLoss(0.3), LatencyJitter(0.0, 0.01)).install(
            net, seed=b"seed-c")
        composed = [net.send("a", "b", b"x") for _ in range(60)]
        assert composed == alone


class TestFrameLoss:
    def test_rate_one_drops_everything(self, fresh_obs):
        net, inboxes = make_net()
        FaultPlan(FrameLoss(1.0)).install(net)
        assert not any(net.send("a", "b", b"x") for _ in range(10))
        assert inboxes["b"] == []
        assert fresh_obs.count("faults.loss.injected") == 10

    def test_rate_zero_drops_nothing(self):
        net, inboxes = make_net()
        FaultPlan(FrameLoss(0.0)).install(net)
        assert all(net.send("a", "b", b"x") for _ in range(10))
        assert len(inboxes["b"]) == 10

    def test_match_scopes_the_loss(self):
        net, _ = make_net()
        FaultPlan(FrameLoss(1.0, match=lambda f: f.dst == "b")).install(net)
        assert net.send("a", "a", b"x") is True
        assert net.send("a", "b", b"x") is False

    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            FrameLoss(1.5)


class TestLatencyJitter:
    def test_adds_virtual_transit_time(self):
        net, _ = make_net()
        FaultPlan(LatencyJitter(0.01, 0.02)).install(net)
        before = net.clock.now
        net.send("a", "b", b"x")
        # base link transit plus at least the jitter floor
        assert net.clock.now - before >= 0.01

    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            LatencyJitter(0.05, 0.01)


class TestDuplicateDelivery:
    def test_duplicates_reach_the_handler_twice(self, fresh_obs):
        net, inboxes = make_net()
        FaultPlan(DuplicateDelivery(1.0)).install(net)
        net.send("a", "b", b"x")
        assert len(inboxes["b"]) == 2
        assert fresh_obs.count("faults.duplicate.injected") == 1

    def test_duplicate_does_not_reenter_the_fault_chain(self):
        """The copy models the wire delivering twice, not re-sending:
        a 100% loss fault *behind* the duplicator never sees the copy."""
        net, inboxes = make_net()
        FaultPlan(DuplicateDelivery(1.0), FrameLoss(1.0)).install(net)
        assert net.send("a", "b", b"x") is False   # original dropped
        assert len(inboxes["b"]) == 1              # the copy still landed


class TestWindows:
    def test_link_outage_heals_at_boundary(self):
        net, _ = make_net()
        FaultPlan(LinkOutage("a", "b", start=0.0, heal_at=1.0)).install(net)
        assert net.send("a", "b", b"x") is False
        assert net.send("b", "a", b"x") is False   # both directions dark
        net.clock.advance(1.0)
        assert net.send("a", "b", b"x") is True

    def test_link_outage_spares_other_pairs(self):
        net, _ = make_net(receivers=("a", "b", "c"))
        FaultPlan(LinkOutage("a", "b", start=0.0, heal_at=1.0)).install(net)
        assert net.send("a", "c", b"x") is True

    def test_partition_blocks_only_cross_group_frames(self):
        net, _ = make_net(receivers=("a", "b", "c", "d"))
        FaultPlan(Partition(("a", "b"), ("c", "d"),
                            start=0.0, heal_at=5.0)).install(net)
        assert net.send("a", "c", b"x") is False
        assert net.send("d", "b", b"x") is False
        assert net.send("a", "b", b"x") is True    # intra-group unaffected
        net.clock.advance(5.0)
        assert net.send("a", "c", b"x") is True

    def test_heal_before_start_is_rejected(self):
        with pytest.raises(ValueError):
            LinkOutage("a", "b", start=2.0, heal_at=1.0)


class TestBrokerCrash:
    def test_outage_then_restart_callback_once(self):
        net, _ = make_net(receivers=("broker", "peer"))
        restarts: list[float] = []
        crash = BrokerCrash("broker", at=0.0, restart_at=1.0,
                            on_restart=lambda: restarts.append(net.clock.now))
        FaultPlan(crash).install(net)
        assert net.send("peer", "broker", b"x") is False
        assert net.send("broker", "peer", b"x") is False
        assert restarts == []                      # still down
        net.clock.advance(1.0)
        assert net.send("peer", "broker", b"x") is True
        assert net.send("peer", "broker", b"x") is True
        assert len(restarts) == 1                  # callback fired exactly once

    def test_other_traffic_flows_during_outage(self):
        net, _ = make_net(receivers=("broker", "peer", "other"))
        FaultPlan(BrokerCrash("broker", at=0.0, restart_at=1.0)).install(net)
        assert net.send("peer", "other", b"x") is True


class TestInstallUninstall:
    def test_uninstall_restores_clean_delivery(self):
        net, inboxes = make_net()
        injector = FaultPlan(FrameLoss(1.0)).install(net)
        assert net.send("a", "b", b"x") is False
        injector.uninstall()
        assert net.send("a", "b", b"x") is True
        assert len(inboxes["b"]) == 1
