"""Retry / timeout / circuit-breaker policies and the result API.

Covers the robustness layer end to end:

* backoff arithmetic and virtual-clock timing,
* timeout budgets (``PrimitiveTimeoutError``),
* breaker state machine (closed -> open -> half-open -> closed/open),
* ``PrimitiveResult`` compatibility shims,
* per-recipient isolation in group sends,
* broker crash-restart: automatic re-login on a *fresh* sid, with the
  stale pre-crash sid rejected by the replay guard (the acceptance
  scenario in ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import (
    CircuitOpenError,
    NetworkError,
    NotConnectedError,
    PrimitiveError,
    PrimitiveTimeoutError,
    SecurityError,
)
from repro.overlay.policy import (
    NO_RETRY,
    CircuitBreaker,
    RetryPolicy,
    Timeout,
    run_with_retry,
)
from repro.overlay.results import PrimitiveResult
from repro.sim import FaultPlan, FrameLoss, VirtualClock


@pytest.fixture()
def fresh_obs():
    saved = (obs.get_registry(), obs.get_events())
    registry = obs.set_registry(obs.Registry(enabled=True))
    obs.set_events(obs.ProtocolEvents(registry=registry))
    try:
        yield registry
    finally:
        obs.set_registry(saved[0])
        obs.set_events(saved[1])


class Flaky:
    """Callable failing with NetworkError the first ``n`` times."""

    def __init__(self, failures: int):
        self.remaining = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise NetworkError("injected transport failure")
        return "payload"


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        p = RetryPolicy(max_attempts=8, base_delay_s=0.1, multiplier=2.0,
                        max_delay_s=0.5, jitter=0.0)
        assert [p.delay(n) for n in (1, 2, 3, 4, 5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_uses_the_supplied_draw(self):
        p = RetryPolicy(base_delay_s=0.1, jitter=0.1)
        assert p.delay(1, draw=lambda: 1.0) == pytest.approx(0.11)
        assert p.delay(1, draw=lambda: 0.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            Timeout(0.0)


class TestRunWithRetry:
    def test_recovers_and_counts_attempts(self):
        clock = VirtualClock()
        result, attempts = run_with_retry(
            Flaky(2), clock=clock,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.1, jitter=0.0))
        assert (result, attempts) == ("payload", 3)
        # two backoffs were waited out on the virtual clock: 0.1 + 0.2
        assert clock.now == pytest.approx(0.3)

    def test_exhaustion_reraises_with_attempt_count(self):
        flaky = Flaky(99)
        with pytest.raises(NetworkError) as err:
            run_with_retry(flaky, clock=VirtualClock(),
                           retry=RetryPolicy(max_attempts=3, jitter=0.0))
        assert err.value.attempts == 3
        assert flaky.calls == 3

    def test_non_transport_errors_propagate_untouched(self):
        def boom():
            raise PrimitiveError("logic bug, do not retry")

        with pytest.raises(PrimitiveError):
            run_with_retry(boom, clock=VirtualClock(),
                           retry=RetryPolicy(max_attempts=4))

    def test_timeout_budget_cuts_the_retry_loop(self):
        clock = VirtualClock()
        with pytest.raises(PrimitiveTimeoutError) as err:
            run_with_retry(
                Flaky(99), clock=clock,
                retry=RetryPolicy(max_attempts=10, base_delay_s=1.0, jitter=0.0),
                timeout=Timeout(2.5))
        assert err.value.attempts >= 1
        assert clock.now <= 2.5   # never waits past the deadline

    def test_retries_are_recorded(self, fresh_obs):
        run_with_retry(Flaky(2), clock=VirtualClock(),
                       retry=RetryPolicy(max_attempts=4, jitter=0.0),
                       label="probe")
        assert fresh_obs.count("overlay.probe.retries") == 2
        assert fresh_obs.count("events.on_retry") == 2


class TestCircuitBreaker:
    def make(self, clock=None):
        clock = clock or VirtualClock()
        return clock, CircuitBreaker(clock, failure_threshold=3,
                                     reset_timeout_s=10.0, name="test")

    def test_opens_after_threshold_and_fails_fast(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_probe_success_closes(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()                      # admitted as the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_probe_failure_reopens(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()                   # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_transitions_are_observable(self, fresh_obs):
        states = []
        obs.on("on_breaker_state", lambda **kw: states.append(kw["state"]))
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_success()
        assert states == ["open", "half_open", "closed"]
        assert fresh_obs.count("policy.breaker.transitions") == 3

    def test_one_retried_call_counts_one_breaker_failure(self):
        """Retries inside one invocation are not separate breaker hits."""
        clock, breaker = self.make()
        with pytest.raises(NetworkError):
            run_with_retry(Flaky(99), clock=clock,
                           retry=RetryPolicy(max_attempts=4, jitter=0.0),
                           breaker=breaker)
        assert breaker.consecutive_failures == 1
        assert breaker.state == CircuitBreaker.CLOSED


class TestPrimitiveResult:
    def test_eq_delegates_to_value(self):
        assert PrimitiveResult(ok=True, value=2) == 2
        assert PrimitiveResult(ok=True, value=b"data") == b"data"
        assert PrimitiveResult(ok=True, value=2) != 3

    def test_sequence_shims_delegate_to_value(self):
        r = PrimitiveResult(ok=True, value=b"abc")
        assert len(r) == 3 and r[0] == ord("a") and bytes(r) == b"abc"

    @pytest.mark.parametrize("value", [True, 2, b"", b"data", None])
    def test_has_no_truth_value(self, value):
        with pytest.raises(TypeError, match=r"\.ok"):
            bool(PrimitiveResult(ok=True, value=value))

    def test_unwrap(self):
        assert PrimitiveResult(ok=True, value="v").unwrap() == "v"
        exc = NetworkError("lost")
        with pytest.raises(NetworkError):
            PrimitiveResult(ok=False, error=exc).unwrap()


class TestMessengerRetries:
    def test_send_msg_peer_retries_through_loss(self, joined_plain_world):
        w = joined_plain_world
        bob = str(w.bob.peer_id)
        w.alice.send_msg_peer(bob, "students", "warm the pipe cache")
        injector = FaultPlan(FrameLoss(0.4)).install(w.net, seed=b"retry-test")
        results = [w.alice.send_msg_peer(bob, "students", f"msg {i}")
                   for i in range(20)]
        injector.uninstall()
        delivered = sum(1 for r in results if r.ok)
        assert delivered == 20      # 4 attempts beat 40% loss, every time
        assert any(r.attempts > 1 and r.degraded for r in results)

    def test_send_msg_peer_reports_failure_without_raising(self, joined_plain_world):
        w = joined_plain_world
        bob = str(w.bob.peer_id)
        w.alice.send_msg_peer(bob, "students", "warm the pipe cache")
        injector = FaultPlan(FrameLoss(1.0)).install(w.net)
        result = w.alice.send_msg_peer(bob, "students", "doomed",
                                       retry=RetryPolicy(max_attempts=2))
        injector.uninstall()
        assert not result.ok and result.attempts == 2 and result.error is not None

    def test_group_send_isolates_unreachable_member(self, joined_plain_world):
        w = joined_plain_world
        # alice+bob share "students"; warm alice's cache, then take bob down
        w.alice.send_msg_peer(str(w.bob.peer_id), "students", "warm-up")
        w.net.unregister("peer:bob")
        result = w.alice.send_msg_peer_group("students", "anyone there?",
                                             retry=NO_RETRY)
        assert result.degraded and not result.ok
        assert result == 0          # nobody else in the group to reach

    def test_per_call_timeout_override(self, joined_plain_world):
        w = joined_plain_world
        bob = str(w.bob.peer_id)
        w.alice.send_msg_peer(bob, "students", "warm the pipe cache")
        injector = FaultPlan(FrameLoss(1.0)).install(w.net)
        result = w.alice.send_msg_peer(
            bob, "students", "slow", retry=RetryPolicy(max_attempts=10,
                                                       base_delay_s=1.0),
            timeout=Timeout(1.5))
        injector.uninstall()
        assert not result.ok and isinstance(result.error, PrimitiveTimeoutError)

    def test_optional_filters_are_keyword_only(self, joined_plain_world):
        with pytest.raises(TypeError):
            joined_plain_world.alice.search_advertisements("PipeAdvertisement")


class TestBrokerFailover:
    def test_connect_fails_over_to_fallback(self, plain_world, fresh_obs):
        w = plain_world
        from repro.overlay.broker import Broker

        Broker(w.net, "broker:1", w.db, w.root.fork(b"br1"), name="B1")
        degraded = []
        obs.on("on_degraded", lambda **kw: degraded.append(kw))
        name = w.alice.connect("broker:ghost", fallbacks=["broker:1"],
                               retry=NO_RETRY)
        assert name == "B1" and w.alice.broker_address == "broker:1"
        assert degraded and degraded[0]["primitive"] == "connect"

    def test_connect_exhausting_all_candidates_raises(self, plain_world):
        with pytest.raises(NotConnectedError):
            plain_world.alice.connect("broker:ghost",
                                      fallbacks=["broker:ghost2"],
                                      retry=NO_RETRY)

    def test_secure_connect_never_fails_over_past_auth_failure(
            self, secure_world):
        """An impostor that answers must abort failover, not be skipped."""
        from repro.attacks import FakeBroker
        from repro.crypto.drbg import HmacDrbg

        w = secure_world
        FakeBroker(w.net, "broker:fake", HmacDrbg(b"fake"))
        with pytest.raises(SecurityError):
            w.alice.secure_connect("broker:fake", fallbacks=["broker:0"])
        assert w.alice.broker_address is None


class TestCrashRecovery:
    def test_auto_relogin_after_broker_restart(self, joined_secure_world,
                                               fresh_obs):
        w = joined_secure_world
        sids_before = w.broker.sids.issued_total
        assert len(w.broker.connected) == 3
        w.broker.restart()
        assert w.broker.connected == {}
        # next broker-backed primitive transparently re-establishes
        members = w.alice.secure_create_group("phoenix")
        assert str(w.alice.peer_id) in members
        assert str(w.alice.peer_id) in w.broker.connected
        # recovery ran a full secureConnection: exactly one fresh sid
        assert w.broker.sids.issued_total == sids_before + 1
        assert w.alice.sid is None          # and it was consumed, one-shot
        assert fresh_obs.count("events.on_degraded") == 1

    def test_plain_client_also_relogs_in(self, joined_plain_world):
        w = joined_plain_world
        w.broker.restart()
        result = w.alice.send_msg_peer_group("students", "back online?")
        assert result.ok                    # group state was re-registered

    def test_stale_precrash_sid_is_rejected_as_replay(self, secure_world,
                                                      fresh_obs):
        """The acceptance scenario: a sid minted before the crash must be
        useless after it — the restarted broker's replay guard treats it
        like any unknown sid."""
        w = secure_world
        w.alice.secure_connect("broker:0")
        assert w.alice.sid is not None      # minted pre-crash
        blocked = []
        obs.on("on_replay_blocked", lambda **kw: blocked.append(kw["kind"]))
        w.broker.restart()                  # sid store wiped with the RAM
        with pytest.raises(SecurityError):
            w.alice.secure_login("alice", "pw-a")
        assert w.broker.sids.replays_blocked == 1
        assert blocked == ["sid"]
        # a fresh handshake works fine afterwards
        w.alice.secure_connect("broker:0")
        assert w.alice.secure_login("alice", "pw-a") == ["students"]
