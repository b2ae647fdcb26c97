"""The benchmark harness itself: timing maths, fixtures, small experiments.

These run the real experiments at miniature scale so they stay fast; the
full-scale runs live in ``benchmarks/``.
"""

import pytest

from repro.bench import fixtures
from repro.bench.timing import OpTiming, mean_total, overhead_pct, timed_call
from repro.core.policy import SecurityPolicy
from repro.crypto import envelope
from repro.sim import SimNetwork, VirtualClock

FAST_POLICY = SecurityPolicy(rsa_bits=512,
                             envelope_wrap=envelope.WRAP_V15).validate()


class TestTimingMath:
    def test_total_combines_cpu_and_network(self):
        t = OpTiming(wall_cpu_s=0.010, network_s=0.002, cpu_scale=2.0)
        assert t.total_s == pytest.approx(0.022)

    def test_overhead_pct(self):
        assert overhead_pct(1.8176, 1.0) == pytest.approx(81.76)
        assert overhead_pct(1.0, 1.0) == pytest.approx(0.0)

    def test_overhead_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            overhead_pct(1.0, 0.0)

    def test_mean_total(self):
        ts = [OpTiming(0.001, 0.001, 1.0), OpTiming(0.003, 0.001, 1.0)]
        assert mean_total(ts) == pytest.approx(0.003)
        assert mean_total([]) == 0.0

    def test_timed_call_splits_costs(self):
        net = SimNetwork(clock=VirtualClock())
        net.register("dst", lambda f: None)
        timing = timed_call(net, lambda: net.send("src", "dst", b"x" * 1000))
        assert timing.network_s > 0
        assert timing.wall_cpu_s >= 0


class TestFixtures:
    def test_cached_keypair_is_cached(self):
        a = fixtures.cached_keypair(512, "t")
        b = fixtures.cached_keypair(512, "t")
        assert a is b

    def test_plain_world_builds(self):
        net, broker, clients = fixtures.build_plain_world(n_clients=2)
        fixtures.join_plain(clients)
        assert all(c.username for c in clients)
        assert len(broker.connected) == 2

    def test_secure_world_joined(self):
        net, admin, broker, clients = fixtures.build_secure_world(
            n_clients=2, policy=FAST_POLICY, joined=True)
        assert all(c.username for c in clients)
        assert all(c.keystore.chain for c in clients)


class TestMiniExperiments:
    def test_join_overhead_positive(self):
        from repro.bench.experiments import join_overhead

        result = join_overhead(policy=FAST_POLICY, repeats=1)
        assert result.secure_s > result.plain_s > 0
        assert result.overhead_pct > 0

    def test_msg_curve_shape(self):
        from repro.bench.experiments import msg_overhead_curve

        curve = msg_overhead_curve(sizes=(100, 100_000), policy=FAST_POLICY,
                                   repeats=1)
        assert len(curve.points) == 2
        assert all(p.secure_s > 0 and p.plain_s > 0 for p in curve.points)
        # Figure 2's qualitative shape: big messages cost relatively less,
        # read from the deterministic byte counts, not wall-clock time
        small, big = curve.points
        assert (big.secure_work["bytes"] / big.plain_work["bytes"]
                < small.secure_work["bytes"] / small.plain_work["bytes"])

    def test_group_scaling_grows_with_members(self):
        from repro.bench.experiments import group_scaling

        points = group_scaling(group_sizes=(2, 4), policy=FAST_POLICY)
        assert points[1].secure_s > points[0].secure_s

    def test_baseline_comparison_runs(self):
        from repro.bench.experiments import baseline_comparison

        points = baseline_comparison(message_counts=(1, 5),
                                     policy=FAST_POLICY)
        assert all(p.stateless_s > 0 and p.tls_s > 0 and p.cbjx_s > 0
                   for p in points)
        # stateless pays its RSA on every message; TLS amortizes its
        # handshake (per-message work counts, not wall-clock time)
        one, five = points
        assert (five.stateless_work["rsa_private"]
                == one.stateless_work["rsa_private"] > 0)
        assert five.tls_work["rsa_private"] < one.tls_work["rsa_private"]


class TestReportFormatting:
    def test_join_report_mentions_paper_number(self):
        from repro.bench.experiments import JoinOverheadResult
        from repro.bench.report import format_join_overhead

        text = format_join_overhead(JoinOverheadResult(
            plain_s=0.01, secure_s=0.018176, overhead_pct=81.76))
        assert "81.76" in text

    def test_msg_report_flags_shape(self):
        from repro.bench.experiments import MsgOverheadCurve, MsgOverheadPoint
        from repro.bench.report import format_msg_overhead

        curve = MsgOverheadCurve(points=[
            MsgOverheadPoint(100, 0.001, 0.01, 900.0),
            MsgOverheadPoint(10_000, 0.01, 0.03, 200.0),
        ])
        assert "matches Figure 2" in format_msg_overhead(curve)

    def test_baselines_report_names_winner(self):
        from repro.bench.experiments import BaselineComparisonPoint
        from repro.bench.report import format_baselines

        text = format_baselines([BaselineComparisonPoint(5, 0.05, 0.03, 0.01)],
                                size_bytes=100)
        assert "cbjx" in text
